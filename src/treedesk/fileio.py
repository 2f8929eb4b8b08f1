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

from .ordinal import Ordinal
from .shape import ShapeTree, validate_shape
from .structure import Fragment, Term
from .partition import Coloring, PTriple
from .glue import GlueSpec


class InputError(ValueError):
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
    shape = ShapeTree(tuple(idxs), root, dict(parent), dict(labels))
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


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError("not valid JSON: %s" % exc, path)
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
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError("%s %r is not an integer" % (what, value), loc)


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
        c = Coloring(int(doc["n"]), int(doc["arity"]), {},
                     int(doc.get("default", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed coloring: %s" % exc, location)
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
    e = {_ref(x, ids, loc): lab
         for loc, (x, lab) in _rows(doc, "e", 2, location)}
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
    base = load_fragment(resolve(doc["base"]))
    boundary = {}
    for loc, block in _rows(doc, "boundary", None, path):
        try:
            key = (block["nu"], _int(block["eps"], "eps", loc))
            boundary[key] = load_fragment(resolve(block["path"]))
        except (KeyError, TypeError) as exc:
            raise InputError("malformed boundary block: %s" % exc, loc)
    connectors = {}
    for loc, block in _rows(doc, "connectors", None, path):
        try:
            key = (block["nu"], int(block["eps"]))
            connectors[key] = {x: v for x, v in block["entries"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed connector block: %s" % exc, loc)
    return GlueSpec(s_prime, base, boundary, connectors)


# ---------------------------------------------------------------------------
# terms and formulas (for the quantifier-free evaluator)


def term_from_list(doc, location: str = "term") -> Term:
    if not isinstance(doc, list) or not doc:
        raise InputError("malformed term %r" % (doc,), location)
    op = doc[0]
    if op == "var":
        return Term.var(int(doc[1]))
    if op == "const":
        return Term.const(doc[1][0], int(doc[1][1]))
    if op == "wedge":
        return Term.wedge(term_from_list(doc[1], location),
                          term_from_list(doc[2], location))
    if op == "suc":
        return Term.suc(term_from_list(doc[1], location),
                        term_from_list(doc[2], location))
    if op == "pre":
        return Term.pre(term_from_list(doc[1], location))
    if op == "lim":
        return Term.lim(term_from_list(doc[1], location))
    if op == "g":
        edge = tuple(doc[2]) if len(doc) > 2 else None
        return Term.g(term_from_list(doc[1], location), edge)
    raise InputError("unknown term operator %r" % op, location)


def formula_from_list(doc, location: str = "formula"):
    if not isinstance(doc, list) or not doc:
        raise InputError("malformed formula %r" % (doc,), location)
    tag = doc[0]
    if tag == "atom":
        return ("atom", doc[1], term_from_list(doc[2], location),
                term_from_list(doc[3], location))
    if tag == "not":
        return ("not", formula_from_list(doc[1], location))
    if tag in ("and", "or"):
        return (tag,) + tuple(formula_from_list(p, location)
                              for p in doc[1:])
    raise InputError("unknown connective %r" % tag, location)


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
