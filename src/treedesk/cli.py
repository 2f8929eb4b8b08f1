"""Batch command-line surface.

Thin wrappers over the library: each subcommand calls one module
operation and emits a deterministic report.  Exit codes: 0 when the
command succeeds and the checked property holds, 1 when a property
fails (or a witness is found where none was expected), 2 on usage or
input errors: a bad command line, a `TreedeskError` (the root of every
error the library raises on purpose), an `OSError` or malformed JSON,
each reported as one violation line.  Any other exception is a bug and
propagates with its traceback.
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

    p = sub.add_parser("validate", help="axiom check a fragment file")
    p.add_argument("file")

    p = sub.add_parser("complete", help="materialize all missing values")
    p.add_argument("file")
    p.add_argument("-o", "--out")

    p = sub.add_parser("close", help="closure of a node set")
    p.add_argument("file")
    p.add_argument("--nodes", required=True)
    p.add_argument("--k", type=int, default=0)

    p = sub.add_parser("types")
    tsub = p.add_subparsers(dest="types_command", required=True, parser_class=pc)
    t = tsub.add_parser("code", help="canonical type code of a tuple")
    t.add_argument("file")
    t.add_argument("--tuple", dest="tup", required=True)
    t.add_argument("--set", dest="aset", default="")
    t.add_argument("--k", type=int, default=0)
    t = tsub.add_parser("count", help="number of type classes")
    t.add_argument("file")
    t.add_argument("--set", dest="aset", default="")
    t.add_argument("--k", type=int, default=0)
    t.add_argument("--n", type=int, default=1)
    t = tsub.add_parser("vc-degree", help="growth degree over set sizes")
    t.add_argument("--family", choices=("chain", "binary"), default="chain")
    t.add_argument("--k", type=int, default=0)
    t.add_argument("--csv")

    p = sub.add_parser("qe")
    qsub = p.add_subparsers(dest="qe_command", required=True, parser_class=pc)
    q = qsub.add_parser("m2", help="extension-rank recursion")
    q.add_argument("--m1", type=int, required=True)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--shape", default="point")
    q = qsub.add_parser("extend", help="one-point extension")
    q.add_argument("file_a")
    q.add_argument("file_b")
    q.add_argument("--abar", required=True)
    q.add_argument("--bbar", required=True)
    q.add_argument("--c", required=True)
    q.add_argument("--m1", type=int, default=0)
    q.add_argument("-o", "--out")
    q = qsub.add_parser("table", help="corpus quantifier-free equivalent")
    q.add_argument("files", nargs="+")
    q.add_argument("--phi", required=True,
                   help="formula as JSON, variable 0 is the witness")
    q.add_argument("--nvars", type=int, required=True)
    q.add_argument("--m", type=int, default=1)

    p = sub.add_parser("indis")
    isub = p.add_subparsers(dest="indis_command", required=True, parser_class=pc)
    for name in ("check", "ni", "hni", "classify", "h-iter"):
        q = isub.add_parser(name)
        q.add_argument("file")
        q.add_argument("--seq", required=True)
        # classify and h-iter read no rank, length or gap
        if name in ("check", "ni", "hni"):
            q.add_argument("--k", type=int, default=1)
            q.add_argument("--r", type=int, default=2)
        if name in ("ni", "hni"):
            q.add_argument("--n", type=int, default=1)
        if name == "h-iter":
            q.add_argument("--max-iter", type=int, default=8)
    q = isub.add_parser("search")
    q.add_argument("file")
    q.add_argument("--set", dest="aset", required=True)
    q.add_argument("--L", type=int, required=True)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--r", type=int, default=2)

    p = sub.add_parser("ramsey")
    rsub = p.add_subparsers(dest="ramsey_command", required=True, parser_class=pc)
    q = rsub.add_parser("homog", help="least homogeneous subsequence")
    q.add_argument("file")
    q.add_argument("--delta", type=int, required=True)

    p = sub.add_parser("pspace")
    psub = p.add_subparsers(dest="pspace_command", required=True, parser_class=pc)
    q = psub.add_parser("validate")
    q.add_argument("file")
    q = psub.add_parser("hard")
    q.add_argument("file")
    q.add_argument("--delta", type=int, required=True)
    q = psub.add_parser("q-build")
    q.add_argument("file")
    q.add_argument("--alpha-max", type=int, default=2)
    q.add_argument("--colors", type=int, default=2)
    q.add_argument("-o", "--out")
    q = psub.add_parser("lift")
    q.add_argument("file")
    q.add_argument("--t", required=True)

    p = sub.add_parser("glue")
    gsub = p.add_subparsers(dest="glue_command", required=True, parser_class=pc)
    q = gsub.add_parser("star")
    q.add_argument("file")
    q.add_argument("-o", "--out")

    p = sub.add_parser("demo")
    p.add_argument("case", choices=("case1", "case2", "case3", "inacc"))
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("-o", "--out")
    return ap


def _run(args) -> RunReport:
    rep = RunReport(command=args.command)
    cmd = args.command

    if cmd == "validate":
        rep.inputs["file"] = _digest(args.file)
        f = fileio.load_fragment(args.file)
        rep.violations = validate(f)
        rep.payload = {"nodes": len(f.nodes), "mode": f.mode}
        rep.status = 0 if not rep.violations else 1

    elif cmd == "complete":
        rep.inputs["file"] = _digest(args.file)
        f = fileio.load_fragment(args.file)
        out = complete(f, args.budget_nodes)
        rep.payload = {"nodes_before": len(f.nodes),
                       "nodes_after": len(out.nodes)}
        if args.out:
            fileio.save_fragment(out, args.out)

    elif cmd == "close":
        rep.inputs["file"] = _digest(args.file)
        f = fileio.load_fragment(args.file)
        s = closure(f, _nodes_arg(args.nodes), args.k)
        rep.payload = {"closure": sorted(s), "size": len(s)}

    elif cmd == "types":
        rep = _run_types(args, rep)

    elif cmd == "qe":
        rep = _run_qe(args, rep)

    elif cmd == "indis":
        rep = _run_indis(args, rep)

    elif cmd == "ramsey":
        rep.inputs["file"] = _digest(args.file)
        c = fileio.load_coloring(args.file)
        res = find_homogeneous(c, args.delta)
        if res is None:
            rep.payload = None
            rep.status = 1
        else:
            idxs, per_len = res
            rep.payload = {"indices": list(idxs),
                           "colors": {str(m): v for m, v in per_len.items()}}

    elif cmd == "pspace":
        rep = _run_pspace(args, rep)

    elif cmd == "glue":
        rep.inputs["file"] = _digest(args.file)
        g = fileio.load_gluespec(args.file)
        out = star_construct(g)
        rep.violations = validate(out)
        rep.payload = {"nodes": len(out.nodes),
                       "sorts": len(out.shape.indices)}
        rep.status = 0 if not rep.violations else 1
        if args.out:
            fileio.save_fragment(out, args.out)

    elif cmd == "demo":
        case = {"case1": "theta", "case2": "singular", "case3": "regular",
                "inacc": "inaccessible"}[args.case]
        f, a = build_witness(case)
        bad = validate(f)
        rep.violations = bad
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
        rep.status = 0 if (not bad and found is None
                           and ctrl is not None) else 1
        if args.out:
            fileio.save_fragment(f, args.out)
    return rep


def _run_types(args, rep: RunReport) -> RunReport:
    rep.command = "types %s" % args.types_command
    if args.types_command == "code":
        rep.inputs["file"] = _digest(args.file)
        f = fileio.load_fragment(args.file)
        code = tp_code(f, _nodes_arg(args.tup), _nodes_arg(args.aset),
                       args.k)
        rep.payload = {"code": hashlib.sha256(code).hexdigest()[:16]}
    elif args.types_command == "count":
        rep.inputs["file"] = _digest(args.file)
        f = fileio.load_fragment(args.file)
        n = count_type_classes(f, _nodes_arg(args.aset), args.k, args.n,
                               args.budget_tuples)
        rep.payload = {"classes": n}
    else:  # vc-degree
        rows, degrees = vc_degree_experiment(args.family, (args.k,),
                                             args.budget_tuples)
        if args.csv:
            fileio.write_series_csv(args.csv, rows)
        rep.payload = {"degree_k%d" % args.k: degrees[args.k]}
    return rep


def _run_qe(args, rep: RunReport) -> RunReport:
    rep.command = "qe %s" % args.qe_command
    if args.qe_command == "m2":
        v = qe_mod.m2(args.m1, args.k, _shape_arg(args.shape))
        rep.payload = {"m2": v}
    elif args.qe_command == "extend":
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
    else:  # table
        corpus = [fileio.load_fragment(p) for p in args.files]
        for p in args.files:
            rep.inputs[p] = _digest(p)
        try:
            doc = json.loads(args.phi)
        except json.JSONDecodeError as exc:
            raise InputError("not valid JSON: %s" % exc, "--phi")
        phi = fileio.formula_from_list(doc, "--phi")
        configs = qe_mod.qe_candidate(phi, args.nvars, corpus, args.m,
                                      args.budget_tuples)
        rep.payload = {"configs": len(configs)}
    return rep


def _run_indis(args, rep: RunReport) -> RunReport:
    rep.command = "indis %s" % args.indis_command
    rep.inputs["file"] = _digest(args.file)
    f = fileio.load_fragment(args.file)
    if args.indis_command == "search":
        res = search_indiscernible(f, _nodes_arg(args.aset), args.L,
                                   args.k, args.r,
                                   budget=args.budget_tuples)
        rep.payload = list(res.seq) if res else None
        rep.status = 0 if res is None else 1
        return rep
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
    return rep


def _run_pspace(args, rep: RunReport) -> RunReport:
    rep.command = "pspace %s" % args.pspace_command
    rep.inputs["file"] = _digest(args.file)
    p = fileio.load_ptriple(args.file)
    if args.pspace_command == "validate":
        rep.violations = validate_ptriple(p)
        rep.status = 0 if not rep.violations else 1
        rep.payload = {"suc_lim": p.suc_lim()}
    elif args.pspace_command == "hard":
        hard = is_hard(p, args.delta, args.budget_tuples)
        rep.payload = {"hard": hard}
        rep.status = 0 if hard else 1
    elif args.pspace_command == "q-build":
        q, ids = q_enumerate(p, args.alpha_max, args.colors)
        bad = []
        for nid, a in sorted(ids.items()):
            bad += ["%s: %s" % (nid, v) for v in validate_qnode(p, a)]
        rep.violations = bad
        rep.payload = {"qnodes": len(ids),
                       "by_length": {str(l): sum(1 for a in ids.values()
                                                 if a.lg == l)
                                     for l in range(args.alpha_max + 1)}}
        rep.status = 0 if not bad else 1
        if args.out:
            fileio.save_ptriple(q, args.out)
    else:  # lift
        a = lift_element(p, args.t)
        bad = validate_qnode(p, a)
        rep.violations = bad
        rep.payload = {"eta": list(a.eta), "lg": a.lg}
        rep.status = 0 if not bad else 1
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
    except (InputError, OSError, json.JSONDecodeError) as exc:
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
