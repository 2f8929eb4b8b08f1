"""Batch command-line surface.

Thin wrappers over the library: each leaf subcommand calls one module
operation and emits a deterministic report.  `build_parser` is the
table of leaves.  Each leaf parser carries three argparse defaults: the
command name its report shows, its handler, and the loader of its
`file` argument (none for a leaf that reads no file, or several).
`_run` digests and loads that file, then lets the handler fill in the
report.

Exit codes: 0 when the command succeeds and the checked property
holds, 1 when a property fails, a violation is reported or a witness
is found where none was expected, 2 on usage or input errors: a bad
command line, a `TreedeskError` (the root of every error the library
raises on purpose, malformed JSON included) or an `OSError`.  Such an
error is reported as one violation line, under the subcommand group's
name.  Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

from .shape import EMPTY_SHAPE, POINT_SHAPE, binary_shape, chain_shape
from .errors import TreedeskError
from .structure import closure, complete, validate
from .types import count_type_classes, tp_code, vc_degree_experiment
from . import qe as qe_mod
from .indis import (SequenceWindow, classify, h_iterate, is_HNI, is_NI,
                    is_indiscernible, search_indiscernible)
from .partition import (find_homogeneous, is_hard, lift_element,
                        q_enumerate, validate_ptriple, validate_qnode)
from .glue import build_control, build_witness, star_construct
from . import fileio
from .fileio import InputError


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    payload: object = None
    violations: list = field(default_factory=list)
    timing: float = 0.0
    status: int = 0

    def to_dict(self) -> dict:
        return {"command": self.command, "inputs": self.inputs,
                "payload": self.payload, "violations": self.violations,
                "timing": round(self.timing, 6), "status": self.status}


def emit_report(r: RunReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(r.to_dict(), indent=1, sort_keys=True) + "\n"
    lines = ["command: %s" % r.command]
    for k, v in sorted(r.inputs.items()):
        lines.append("input %s: %s" % (k, v))
    if r.violations:
        for v in r.violations:
            lines.append("violation: %s" % v)
    else:
        lines.append("OK" if r.status == 0 else "FAIL")
    lines.append("payload: %s" % json.dumps(r.payload, sort_keys=True))
    lines.append("time: %.3fs" % r.timing)
    return "\n".join(lines) + "\n"


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:12]


def _shape_arg(text: str):
    if text == "empty":
        return EMPTY_SHAPE
    if text == "point":
        return POINT_SHAPE
    kind, _, num = text.partition(":")
    if kind not in ("chain", "binary"):
        raise InputError("unknown shape spec %r" % text, "--shape")
    if not (num.isascii() and num.isdigit()):
        raise InputError("shape size %r is not a natural number" % num,
                         "--shape")
    return (chain_shape if kind == "chain" else binary_shape)(int(num))


def _nodes_arg(text: str):
    return tuple(x for x in text.split(",") if x)


# Leaf handlers: each takes the parsed arguments, the loaded input file
# (None for a leaf without a loader) and the report, and fills in the
# payload, the violations and the status of its own rule; `_run` sets
# status 1 whenever there are violations.


def _validate(args, f, rep):
    rep.violations = validate(f)
    rep.payload = {"nodes": len(f.nodes), "mode": f.mode}


def _complete(args, f, rep):
    out = complete(f, args.budget_nodes)
    rep.payload = {"nodes_before": len(f.nodes), "nodes_after": len(out.nodes)}
    if args.out:
        fileio.save_fragment(out, args.out)


def _close(args, f, rep):
    s = closure(f, _nodes_arg(args.nodes), args.k)
    rep.payload = {"closure": sorted(s), "size": len(s)}


def _types_code(args, f, rep):
    code = tp_code(f, _nodes_arg(args.tup), _nodes_arg(args.aset), args.k)
    rep.payload = {"code": hashlib.sha256(code).hexdigest()[:16]}


def _types_count(args, f, rep):
    n = count_type_classes(f, _nodes_arg(args.aset), args.k, args.n,
                           args.budget_tuples)
    rep.payload = {"classes": n}


def _vc_degree(args, _, rep):
    rows, degrees = vc_degree_experiment(args.family, (args.k,),
                                         args.budget_tuples)
    if args.csv:
        fileio.write_series_csv(args.csv, rows)
    rep.payload = {"degree_k%d" % args.k: degrees[args.k]}


def _qe_m2(args, _, rep):
    rep.payload = {"m2": qe_mod.m2(args.m1, args.k, _shape_arg(args.shape))}


def _qe_extend(args, _, rep):
    rep.inputs["file_a"] = _digest(args.file_a)
    rep.inputs["file_b"] = _digest(args.file_b)
    fa = fileio.load_fragment(args.file_a)
    fb = fileio.load_fragment(args.file_b)
    ext, d = qe_mod.extend_one_point(
        fa, _nodes_arg(args.abar), args.c, fb, _nodes_arg(args.bbar),
        args.m1, args.budget_nodes)
    rep.payload = {"d": d, "nodes_added": len(ext.nodes) - len(fb.nodes)}
    if args.out:
        fileio.save_fragment(ext, args.out)


def _qe_table(args, _, rep):
    corpus = [fileio.load_fragment(p) for p in args.files]
    for p in args.files:
        rep.inputs[p] = _digest(p)
    phi = fileio.formula_from_list(fileio.parse_json(args.phi, "--phi"),
                                   "--phi")
    configs = qe_mod.qe_candidate(phi, args.nvars, corpus, args.m,
                                  args.budget_tuples)
    rep.payload = {"configs": len(configs)}


def _window(args, f, rep):
    w = SequenceWindow(f, _nodes_arg(args.seq),
                       **{a: getattr(args, a) for a in ("k", "r", "n")
                          if hasattr(args, a)})
    checks = {"check": ("indiscernible", is_indiscernible),
              "ni": ("nearly_indiscernible", is_NI),
              "hni": ("hereditarily", is_HNI)}
    if args.indis_command in checks:
        name, check = checks[args.indis_command]
        ok = check(w)
        rep.payload = {name: ok}
        rep.status = 0 if ok else 1
    elif args.indis_command == "classify":
        cls = classify(w)
        rep.payload = {"tag": cls.tag, "witness": cls.witness}
        rep.status = 0 if cls.tag != "Neither" else 1
    else:  # h-iter
        trace = h_iterate(w, args.max_iter)
        rep.payload = [{"seq": list(st.window.seq),
                        "tag": st.classification.tag,
                        "levels": [str(l) for l in st.levels]}
                       for st in trace]
        rep.status = 0 if trace[-1].classification.tag == "Fan" else 1


def _search(args, f, rep):
    res = search_indiscernible(f, _nodes_arg(args.aset), args.L, args.k,
                               args.r, budget=args.budget_tuples)
    rep.payload = list(res.seq) if res else None
    rep.status = 0 if res is None else 1


def _homog(args, c, rep):
    res = find_homogeneous(c, args.delta, args.budget_tuples)
    if res is None:
        rep.status = 1
    else:
        idxs, per_len = res
        rep.payload = {"indices": list(idxs),
                       "colors": {str(m): v for m, v in per_len.items()}}


def _pspace_validate(args, p, rep):
    rep.violations = validate_ptriple(p)
    rep.payload = {"suc_lim": p.suc_lim()}


def _hard(args, p, rep):
    hard = is_hard(p, args.delta, args.budget_tuples)
    rep.payload = {"hard": hard}
    rep.status = 0 if hard else 1


def _q_build(args, p, rep):
    q, ids = q_enumerate(p, args.alpha_max, args.colors)
    for nid, a in sorted(ids.items()):
        rep.violations += ["%s: %s" % (nid, v) for v in validate_qnode(p, a)]
    rep.payload = {"qnodes": len(ids),
                   "by_length": {str(l): sum(1 for a in ids.values()
                                             if a.lg == l)
                                 for l in range(args.alpha_max + 1)}}
    if args.out:
        fileio.save_ptriple(q, args.out)


def _lift(args, p, rep):
    a = lift_element(p, args.t)
    rep.violations = validate_qnode(p, a)
    rep.payload = {"eta": list(a.eta), "lg": a.lg}


def _star(args, g, rep):
    out = star_construct(g)
    rep.violations = validate(out)
    rep.payload = {"nodes": len(out.nodes), "sorts": len(out.shape.indices)}
    if args.out:
        fileio.save_fragment(out, args.out)


def _demo(args, _, rep):
    case = {"case1": "theta", "case2": "singular", "case3": "regular",
            "inacc": "inaccessible"}[args.case]
    f, a = build_witness(case)
    rep.violations = validate(f)
    found = search_indiscernible(f, a, args.L, args.k, args.r,
                                 budget=args.budget_tuples)
    fc, ac = build_control(len(a))
    ctrl = search_indiscernible(fc, ac, args.L, args.k, args.r,
                                budget=args.budget_tuples)
    rep.payload = {
        "case": args.case,
        "nodes": len(f.nodes),
        "witness_size": len(a),
        "witness_window": list(found.seq) if found else None,
        "control_window": list(ctrl.seq) if ctrl else None,
    }
    rep.status = 0 if found is None and ctrl is not None else 1
    if args.out:
        fileio.save_fragment(f, args.out)


def build_parser() -> argparse.ArgumentParser:
    # Accepted before or after the subcommand: the subparser copy uses
    # SUPPRESS defaults so it only overrides when actually given.
    def add_common(p, suppress):
        def default(value):
            return argparse.SUPPRESS if suppress else value
        p.add_argument("--format", choices=("text", "json"),
                       default=default("text"))
        p.add_argument("--budget-nodes", type=int, default=default(2000))
        p.add_argument("--budget-tuples", type=int, default=default(250000))

    common = argparse.ArgumentParser(add_help=False)
    add_common(common, suppress=True)

    ap = argparse.ArgumentParser(
        prog="treedesk",
        description="desk-scale tree-structure workbench")
    add_common(ap, suppress=False)
    def pc(**kw):
        return argparse.ArgumentParser(parents=[common], **kw)

    sub = ap.add_subparsers(dest="command", required=True, parser_class=pc)

    def group(name):
        return sub.add_parser(name).add_subparsers(
            dest=name + "_command", required=True, parser_class=pc)

    def leaf(subs, report, run, load=None, name=None, **kw):
        """The leaf parser `name` (the last word of `report` unless
        given), with a `file` positional when it has a loader."""
        p = subs.add_parser(name or report.split()[-1], **kw)
        if load:
            p.add_argument("file")
        p.set_defaults(report=report, run=run, load=load)
        return p

    fragment = fileio.load_fragment
    leaf(sub, "validate", _validate, fragment,
         help="axiom check a fragment file")
    p = leaf(sub, "complete", _complete, fragment,
             help="materialize all missing values")
    p.add_argument("-o", "--out")
    p = leaf(sub, "close", _close, fragment, help="closure of a node set")
    p.add_argument("--nodes", required=True)
    p.add_argument("--k", type=int, default=0)

    tsub = group("types")
    t = leaf(tsub, "types code", _types_code, fragment,
             help="canonical type code of a tuple")
    t.add_argument("--tuple", dest="tup", required=True)
    t.add_argument("--set", dest="aset", default="")
    t.add_argument("--k", type=int, default=0)
    t = leaf(tsub, "types count", _types_count, fragment,
             help="number of type classes")
    t.add_argument("--set", dest="aset", default="")
    t.add_argument("--k", type=int, default=0)
    t.add_argument("--n", type=int, default=1)
    t = leaf(tsub, "types vc-degree", _vc_degree,
             help="growth degree over set sizes")
    t.add_argument("--family", choices=("chain", "binary"), default="chain")
    t.add_argument("--k", type=int, default=0)
    t.add_argument("--csv")

    qsub = group("qe")
    q = leaf(qsub, "qe m2", _qe_m2, help="extension-rank recursion")
    q.add_argument("--m1", type=int, required=True)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--shape", default="point")
    q = leaf(qsub, "qe extend", _qe_extend, help="one-point extension")
    q.add_argument("file_a")
    q.add_argument("file_b")
    q.add_argument("--abar", required=True)
    q.add_argument("--bbar", required=True)
    q.add_argument("--c", required=True)
    q.add_argument("--m1", type=int, default=0)
    q.add_argument("-o", "--out")
    q = leaf(qsub, "qe table", _qe_table,
             help="corpus quantifier-free equivalent")
    q.add_argument("files", nargs="+")
    q.add_argument("--phi", required=True,
                   help="formula as JSON, variable 0 is the witness")
    q.add_argument("--nvars", type=int, required=True)
    q.add_argument("--m", type=int, default=1)

    isub = group("indis")
    for name in ("check", "ni", "hni", "classify", "h-iter"):
        q = leaf(isub, "indis " + name, _window, fragment)
        q.add_argument("--seq", required=True)
        # classify and h-iter read no rank, length or gap
        if name in ("check", "ni", "hni"):
            q.add_argument("--k", type=int, default=1)
            q.add_argument("--r", type=int, default=2)
        if name in ("ni", "hni"):
            q.add_argument("--n", type=int, default=1)
        if name == "h-iter":
            q.add_argument("--max-iter", type=int, default=8)
    q = leaf(isub, "indis search", _search, fragment)
    q.add_argument("--set", dest="aset", required=True)
    q.add_argument("--L", type=int, required=True)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--r", type=int, default=2)

    q = leaf(group("ramsey"), "ramsey", _homog, fileio.load_coloring,
             name="homog", help="least homogeneous subsequence")
    q.add_argument("--delta", type=int, required=True)

    psub = group("pspace")
    leaf(psub, "pspace validate", _pspace_validate, fileio.load_ptriple)
    q = leaf(psub, "pspace hard", _hard, fileio.load_ptriple)
    q.add_argument("--delta", type=int, required=True)
    q = leaf(psub, "pspace q-build", _q_build, fileio.load_ptriple)
    q.add_argument("--alpha-max", type=int, default=2)
    q.add_argument("--colors", type=int, default=2)
    q.add_argument("-o", "--out")
    q = leaf(psub, "pspace lift", _lift, fileio.load_ptriple)
    q.add_argument("--t", required=True)

    q = leaf(group("glue"), "glue", _star, fileio.load_gluespec, name="star")
    q.add_argument("-o", "--out")

    p = leaf(sub, "demo", _demo)
    p.add_argument("case", choices=("case1", "case2", "case3", "inacc"))
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("-o", "--out")
    return ap


def _run(args) -> RunReport:
    rep = RunReport(command=args.report)
    data = None
    if args.load:
        rep.inputs["file"] = _digest(args.file)
        data = args.load(args.file)
    args.run(args, data, rep)
    if rep.violations:
        rep.status = 1
    return rep


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    t0 = time.monotonic()
    try:
        rep = _run(args)
    except (InputError, OSError) as exc:
        rep = RunReport(command=args.command, violations=[str(exc)],
                        status=2)
    except TreedeskError as exc:
        rep = RunReport(command=args.command,
                        violations=["%s: %s" % (type(exc).__name__, exc)],
                        status=2)
    rep.timing = time.monotonic() - t0
    sys.stdout.write(emit_report(rep, args.format))
    return rep.status


if __name__ == "__main__":
    sys.exit(main())
