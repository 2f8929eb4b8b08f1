"""File formats: fragments, colorings, triples, glue specifications.

All documents are JSON.  Ordinals appear as literals in the grammar

    ordinal := "0" | term ("+" term)*
    term    := "w" ("^" nat)? ("*" nat)? | nat

and every list is serialized sorted by id, so files are diff-stable.
Parse errors carry a location string naming the section and offending
token.
"""

from __future__ import annotations

import json
import os

from .errors import TreedeskError
from .ordinal import Ordinal
from .shape import ShapeTree, validate_shape
from .structure import Fragment, Term
from .partition import Coloring, PTriple
from .glue import GlueSpec


class InputError(TreedeskError, ValueError):
    def __init__(self, message: str, location: str = ""):
        super().__init__("%s (at %s)" % (message, location) if location
                         else message)
        self.location = location


# ---------------------------------------------------------------------------
# shapes


def shape_to_dict(s: ShapeTree) -> dict:
    return {
        "indices": list(s.indices),
        "root": s.root,
        "parent": {i: s.parent[i] for i in sorted(s.parent)},
        "labels": {i: s.labels[i] for i in sorted(s.labels)},
    }


def shape_from_dict(doc: dict, location: str = "shape") -> ShapeTree:
    """Distinct string indices, a string root (or none), object-valued
    parent and labels; the result must pass `validate_shape`."""
    try:
        idxs = doc["indices"]
        root = doc.get("root")
        parent = doc.get("parent", {})
        labels = doc.get("labels", {})
    except (KeyError, TypeError) as exc:
        raise InputError("malformed shape section: %s" % exc, location)
    if not (isinstance(idxs, list) and all(isinstance(i, str) for i in idxs)
            and len(set(idxs)) == len(idxs)):
        raise InputError("indices %r are not distinct strings" % (idxs,),
                         location)
    if not (root is None or isinstance(root, str)):
        raise InputError("root %r is not a string" % (root,), location)
    if not (isinstance(parent, dict)
            and all(isinstance(p, str) for p in parent.values())):
        raise InputError("parent %r is not an object of index names"
                         % (parent,), location)
    if not isinstance(labels, dict):
        raise InputError("labels %r is not an object" % (labels,), location)
    shape = ShapeTree(tuple(idxs), root, parent, labels)
    report = validate_shape(shape)
    if report:
        raise InputError("malformed shape: %s" % report[0], location)
    return shape


def _parse_level(text, location: str) -> Ordinal:
    try:
        return Ordinal.parse(text)
    except (ValueError, AttributeError, TypeError) as exc:
        raise InputError("malformed ordinal literal %r: %s" % (text, exc),
                         location)


def parse_json(text: str, location: str):
    """The JSON value of text, or InputError at location (also when it
    nests too deeply for the decoder)."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError("not valid JSON: %s" % exc, location)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError("not a text file: %s" % exc, path)
    doc = parse_json(text, path)
    if not isinstance(doc, dict):
        raise InputError("document is not a JSON object", path)
    return doc


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _rows(doc: dict, key: str, width: int | None, location: str):
    """(location, row) for each row of the section doc[key]: a list of
    `width` entries, or an object when width is None."""
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise InputError("section %r is not a list" % key, location)
    for i, row in enumerate(rows):
        loc = "%s.%s[%d]" % (location, key, i)
        if not (isinstance(row, dict) if width is None
                else isinstance(row, list) and len(row) == width):
            raise InputError("malformed %s row %r" % (key, row), loc)
        yield loc, row


def _ref(nid, ids, loc: str):
    if not isinstance(nid, str) or nid not in ids:
        raise InputError("dangling node reference %r" % (nid,), loc)
    return nid


def _int(value, what: str, loc: str) -> int:
    """value, or InputError at loc unless it is a JSON integer: a bool,
    a float such as 2.0 and a string such as "7" are refused."""
    if type(value) is not int:
        raise InputError("%s %r is not an integer" % (what, value), loc)
    return value


# ---------------------------------------------------------------------------
# fragments


def fragment_to_dict(f: Fragment) -> dict:
    nodes = []
    for n in sorted(f.nodes):
        entry = {"id": n}
        if n in f.level:
            entry["level"] = str(f.level[n])
        if f.sort.get(n) is not None:
            entry["sort"] = f.sort[n]
        nodes.append(entry)
    return {
        "shape": shape_to_dict(f.shape),
        "nodes": nodes,
        "order": sorted([a, b] for a, b in f.order),
        "meet": sorted([x, y, m] for (x, y), m in f.meet.items()),
        "suc": sorted([x, y, v] for (x, y), v in f.suc.items()),
        "pre": sorted([x, v] for x, v in f.pre.items()),
        "lim": sorted([x, v] for x, v in f.lim.items()),
        "g": [{"edge": [e1, e2],
               "entries": sorted([x, v] for x, v in t.items())}
              for (e1, e2), t in sorted(f.gmap.items())],
        "constants": sorted([eta, i, c]
                            for (eta, i), c in f.constants.items()),
        "mode": f.mode,
    }


def fragment_from_dict(doc: dict, location: str = "fragment") -> Fragment:
    """Nodes without a sort may omit their level; all others need one."""
    if not isinstance(doc, dict):
        raise InputError("fragment %r is not a JSON object" % (doc,),
                         location)
    shape = shape_from_dict(doc.get("shape", {}), location + ".shape")

    def known_sort(eta):
        return isinstance(eta, str) and eta in shape

    sort = {}
    level = {}
    ids = set()
    for loc, entry in _rows(doc, "nodes", None, location):
        nid = entry.get("id")
        if not isinstance(nid, str):
            raise InputError("node entry without id", loc)
        ids.add(nid)
        if "level" in entry or "sort" in entry:
            level[nid] = _parse_level(entry.get("level"), loc)
        if "sort" in entry:
            if not known_sort(entry["sort"]):
                raise InputError("unknown sort %r" % (entry["sort"],), loc)
            sort[nid] = entry["sort"]

    order = {(_ref(a, ids, loc), _ref(b, ids, loc))
             for loc, (a, b) in _rows(doc, "order", 2, location)}
    meet = {}
    for loc, (x, y, m) in _rows(doc, "meet", 3, location):
        key = tuple(sorted((_ref(x, ids, loc), _ref(y, ids, loc))))
        meet[key] = _ref(m, ids, loc)
    suc = {(_ref(x, ids, loc), _ref(y, ids, loc)): _ref(v, ids, loc)
           for loc, (x, y, v) in _rows(doc, "suc", 3, location)}
    pre = {_ref(x, ids, loc): _ref(v, ids, loc)
           for loc, (x, v) in _rows(doc, "pre", 2, location)}
    lim = {_ref(x, ids, loc): _ref(v, ids, loc)
           for loc, (x, v) in _rows(doc, "lim", 2, location)}
    gmap = {}
    for loc, block in _rows(doc, "g", None, location):
        edge = block.get("edge")
        if not (isinstance(edge, list) and len(edge) == 2
                and all(map(known_sort, edge))):
            raise InputError("unknown level-map edge %r" % (edge,), loc)
        gmap[tuple(edge)] = {
            _ref(x, ids, eloc): _ref(v, ids, eloc)
            for eloc, (x, v) in _rows(block, "entries", 2, loc)}
    constants = {}
    for loc, (eta, idx, c) in _rows(doc, "constants", 3, location):
        if not known_sort(eta):
            raise InputError("unknown sort %r in constant" % (eta,), loc)
        constants[(eta, _int(idx, "constant index", loc))] = _ref(c, ids, loc)
    mode = doc.get("mode", "base")
    if mode not in ("base", "theta", "classT"):
        raise InputError("unknown mode %r" % mode, location)
    return Fragment(shape, tuple(sorted(ids)), sort, level, order, meet,
                    suc, pre, lim, gmap, constants, mode)


def save_fragment(f: Fragment, path: str) -> None:
    _write_json(fragment_to_dict(f), path)


def load_fragment(path: str) -> Fragment:
    return fragment_from_dict(_read_json(path), path)


# ---------------------------------------------------------------------------
# colorings


def coloring_to_dict(c: Coloring) -> dict:
    return {"n": c.n, "arity": c.arity, "default": c.default,
            "entries": sorted([list(k), v] for k, v in c.table.items())}


def coloring_from_dict(doc: dict, location: str = "coloring") -> Coloring:
    try:
        n, arity, default = doc["n"], doc["arity"], doc.get("default", 0)
    except (KeyError, TypeError) as exc:
        raise InputError("malformed coloring: %s" % exc, location)
    c = Coloring(_int(n, "ground size", location + ".n"),
                 _int(arity, "arity", location + ".arity"), {},
                 _int(default, "default color", location + ".default"))
    if c.n < 0:
        raise InputError("ground size %d is negative" % c.n, location + ".n")
    for loc, (key, v) in _rows(doc, "entries", 2, location):
        try:
            key = tuple(key)
            c.check_key(key)
        except (TypeError, ValueError) as exc:
            raise InputError("malformed coloring entry: %s" % exc, loc)
        c.table[key] = _int(v, "color", loc)
    return c


def load_coloring(path: str) -> Coloring:
    return coloring_from_dict(_read_json(path), path)


def save_coloring(c: Coloring, path: str) -> None:
    _write_json(coloring_to_dict(c), path)


# ---------------------------------------------------------------------------
# triples


def ptriple_to_dict(p: PTriple) -> dict:
    return {"fragment": fragment_to_dict(p.tree),
            "d": sorted([list(k), v] for k, v in p.d.items()),
            "e": sorted([x, str(lab)] for x, lab in p.e.items())}


def ptriple_from_dict(doc: dict, location: str = "ptriple") -> PTriple:
    tree = fragment_from_dict(doc.get("fragment", {}),
                              location + ".fragment")
    ids = set(tree.nodes)
    d = {}
    for loc, (key, v) in _rows(doc, "d", 2, location):
        if not isinstance(key, list):
            raise InputError("d key %r is not a list" % (key,), loc)
        d[tuple(_ref(x, ids, loc) for x in key)] = _int(v, "color", loc)
    e = {}
    for loc, (x, lab) in _rows(doc, "e", 2, location):
        x = _ref(x, ids, loc)
        if isinstance(lab, (list, dict)):
            raise InputError("class label %r is not a JSON scalar" % (lab,),
                             loc)
        e[x] = lab
    return PTriple(tree, d, e)


def load_ptriple(path: str) -> PTriple:
    return ptriple_from_dict(_read_json(path), path)


def save_ptriple(p: PTriple, path: str) -> None:
    _write_json(ptriple_to_dict(p), path)


# ---------------------------------------------------------------------------
# glue specifications (reference fragment files by path)


def load_gluespec(path: str) -> GlueSpec:
    doc = _read_json(path)
    here = os.path.dirname(os.path.abspath(path))

    def resolve(rel):
        return rel if os.path.isabs(rel) else os.path.join(here, rel)

    s_prime = shape_from_dict(doc.get("s_prime", {}), path + ".s_prime")
    base = doc.get("base")
    if not isinstance(base, str):
        raise InputError("base %r is not a file path" % (base,),
                         path + ".base")
    base = load_fragment(resolve(base))
    boundary = {}
    for loc, block in _rows(doc, "boundary", None, path):
        try:
            key = _block_key(block, loc)
            boundary[key] = load_fragment(resolve(block["path"]))
        except (KeyError, TypeError) as exc:
            raise InputError("malformed boundary block: %s" % exc, loc)
    connectors = {}
    for loc, block in _rows(doc, "connectors", None, path):
        try:
            key = _block_key(block, loc)
            connectors[key] = dict(
                _id_pair(row, "%s.entries[%d]" % (loc, i))
                for i, row in enumerate(block["entries"]))
        except (KeyError, TypeError) as exc:
            raise InputError("malformed connector block: %s" % exc, loc)
    return GlueSpec(s_prime, base, boundary, connectors)


def _block_key(block: dict, loc: str) -> tuple[str, int]:
    """(nu, eps) of the boundary or connector block at loc: nu an index
    name and eps an integer.  A missing key raises KeyError."""
    nu = block["nu"]
    if not isinstance(nu, str):
        raise InputError("nu %r is not an index name" % (nu,), loc + ".nu")
    return nu, _int(block["eps"], "eps", loc + ".eps")


def _id_pair(row, loc: str) -> list[str]:
    """row, or InputError unless it is a pair of node-id strings."""
    if not (isinstance(row, list) and len(row) == 2
            and all(isinstance(x, str) for x in row)):
        raise InputError("connector entry %r is not a pair of node ids"
                         % (row,), loc)
    return row


# ---------------------------------------------------------------------------
# terms and formulas (for the quantifier-free evaluator)


_TERM_ARITY = {"var": (1,), "const": (1,), "wedge": (2,), "suc": (2,),
               "pre": (1,), "lim": (1,), "g": (1, 2)}


def _arguments(doc, arity, location: str) -> list:
    """doc[1:], or InputError unless there are as many as arity allows."""
    if len(doc) - 1 not in arity:
        raise InputError("%r takes %s argument(s), not %d"
                         % (doc[0], " or ".join(map(str, arity)),
                            len(doc) - 1), location)
    return doc[1:]


# How many lists deep a term or formula may nest, counting a formula's
# terms below it: evaluating one recurses once or twice per level, so
# deeper input would exhaust Python's default recursion limit of 1000.
MAX_NESTING = 200


def _check_nesting(depth: int, location: str) -> None:
    if depth > MAX_NESTING:
        raise InputError("nested more than %d lists deep" % MAX_NESTING,
                         location)


def term_from_list(doc, location: str = "term", depth: int = 1) -> Term:
    """The term [op, args...]: ["var", i] with i a natural number,
    ["const", [sort, i]], ["wedge" | "suc", t1, t2], ["pre" | "lim", t]
    or ["g", t] with an optional edge [sort, sort].  Raises InputError
    at the location of the fault, the argument at position i of a list
    at location L being at "L[i]", and at the first list that lies more
    than MAX_NESTING deep (doc itself lies `depth` deep)."""
    _check_nesting(depth, location)
    if not isinstance(doc, list) or not doc:
        raise InputError("malformed term %r" % (doc,), location)
    op = doc[0]
    if not isinstance(op, str) or op not in _TERM_ARITY:
        raise InputError("unknown term operator %r" % (op,), location)
    args = _arguments(doc, _TERM_ARITY[op], location)
    if op == "var":
        if not (type(args[0]) is int and args[0] >= 0):
            raise InputError("variable index %r is not a natural number"
                             % (args[0],), location + "[1]")
        return Term.var(args[0])
    if op == "const":
        key = args[0]
        if not (isinstance(key, list) and len(key) == 2
                and isinstance(key[0], str) and type(key[1]) is int):
            raise InputError("constant %r is not [sort, index]" % (key,),
                             location + "[1]")
        return Term.const(key[0], key[1])
    if op == "g" and len(args) == 2:
        edge = args[1]
        if not (isinstance(edge, list) and len(edge) == 2
                and all(isinstance(e, str) for e in edge)):
            raise InputError("edge %r is not [sort, sort]" % (edge,),
                             location + "[2]")
        return Term.g(term_from_list(args[0], location + "[1]", depth + 1),
                      tuple(edge))
    subs = [term_from_list(t, "%s[%d]" % (location, i), depth + 1)
            for i, t in enumerate(args, 1)]
    return getattr(Term, op)(*subs)


def formula_from_list(doc, location: str = "formula", depth: int = 1):
    """The formula ["atom", rel, t1, t2] with rel "=" or "<", ["not", phi]
    or ["and" | "or", phi...]; faults, and nesting past MAX_NESTING, are
    located as in `term_from_list`."""
    _check_nesting(depth, location)
    if not isinstance(doc, list) or not doc:
        raise InputError("malformed formula %r" % (doc,), location)
    tag = doc[0]
    if tag == "atom":
        rel, t1, t2 = _arguments(doc, (3,), location)
        if rel not in ("=", "<"):
            raise InputError("unknown relation %r" % (rel,), location + "[1]")
        return ("atom", rel, term_from_list(t1, location + "[2]", depth + 1),
                term_from_list(t2, location + "[3]", depth + 1))
    if tag == "not":
        phi, = _arguments(doc, (1,), location)
        return ("not", formula_from_list(phi, location + "[1]", depth + 1))
    if tag in ("and", "or"):
        return (tag,) + tuple(
            formula_from_list(p, "%s[%d]" % (location, i), depth + 1)
            for i, p in enumerate(doc[1:], 1))
    raise InputError("unknown connective %r" % (tag,), location)


# ---------------------------------------------------------------------------
# CSV export


def write_series_csv(path: str, rows) -> None:
    """Rows of (set_size, rank, tuple_len, count)."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["set_size", "k", "n", "count"])
        for row in rows:
            w.writerow(list(row))
