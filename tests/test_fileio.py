import copy
import csv
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from gen import (chain, nested_formula, six_chain_base,
                 three_sort_step_fixture)
from oracles import SET_CHECKED, set_checked_reports, validate_reference
from treedesk.fileio import (
    MAX_NESTING, InputError, coloring_from_dict, coloring_to_dict, formula_from_list,
    fragment_from_dict, fragment_to_dict, load_coloring, load_fragment,
    load_gluespec, load_ptriple, parse_json, ptriple_from_dict,
    ptriple_to_dict, save_coloring, save_fragment, save_ptriple,
    term_from_list, write_series_csv,
)
from treedesk.glue import star_construct
from treedesk.ordinal import Ordinal
from treedesk.partition import Coloring
from treedesk.qe import eval_formula, extend_one_point
from treedesk.shape import EMPTY_SHAPE, validate_shape
from treedesk.structure import (Fragment, Term, complete, from_standard_tree,
                                validate)


def _fragments_equal(a, b):
    return fragment_to_dict(a) == fragment_to_dict(b)


def test_fragment_round_trip(tmp_path):
    f, _ = three_sort_step_fixture()
    f = complete(f)
    p = tmp_path / "frag.json"
    save_fragment(f, str(p))
    g = load_fragment(str(p))
    assert _fragments_equal(f, g)


def test_fragment_file_is_stable(tmp_path):
    f = chain(5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_fragment(f, str(p1))
    save_fragment(load_fragment(str(p1)), str(p2))
    assert p1.read_text() == p2.read_text()


def test_fragment_bad_ordinal_reports_location(tmp_path):
    f = chain(3)
    doc = fragment_to_dict(f)
    doc["nodes"][1]["level"] = "w^"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError) as exc:
        load_fragment(str(p))
    assert "nodes[1]" in exc.value.location


def test_fragment_dangling_reference():
    f = chain(3)
    doc = fragment_to_dict(f)
    doc["order"].append(["n00", "ghost"])
    with pytest.raises(InputError) as exc:
        fragment_from_dict(doc)
    assert "ghost" in str(exc.value)


def test_fragment_unknown_mode():
    doc = fragment_to_dict(chain(2))
    doc["mode"] = "weird"
    with pytest.raises(InputError):
        fragment_from_dict(doc)


def test_fragment_not_json(tmp_path):
    p = tmp_path / "nope.json"
    p.write_text("{not json")
    with pytest.raises(InputError):
        load_fragment(str(p))


@pytest.mark.parametrize("load", [load_fragment, load_coloring, load_ptriple,
                                  load_gluespec])
def test_document_not_an_object(tmp_path, load):
    p = tmp_path / "list.json"
    p.write_text("[]")
    with pytest.raises(InputError) as exc:
        load(str(p))
    assert exc.value.location == str(p)


def test_fragment_huge_level_literal_reports_location():
    doc = fragment_to_dict(chain(2))
    doc["nodes"][1]["level"] = "9" * 5000
    with pytest.raises(InputError) as exc:
        fragment_from_dict(doc)
    assert "nodes[1]" in exc.value.location


def test_unsorted_nodes_without_level_round_trip():
    f = Fragment(EMPTY_SHAPE, ["a", "b"])
    doc = fragment_to_dict(f)
    assert doc["nodes"] == [{"id": "a"}, {"id": "b"}]
    assert _fragments_equal(fragment_from_dict(doc), f)
    # the fresh point of an extension over the empty shape has no level
    fb = Fragment(EMPTY_SHAPE, ["y0", "y1"])
    ext, d = extend_one_point(f, ("a",), "b", fb, ("y0",), 0)
    assert d not in ext.level
    assert _fragments_equal(fragment_from_dict(fragment_to_dict(ext)), ext)


def test_sorted_node_without_level_reports_location():
    doc = fragment_to_dict(chain(3))
    del doc["nodes"][2]["level"]
    with pytest.raises(InputError) as exc:
        fragment_from_dict(doc)
    assert "nodes[2]" in exc.value.location


# Loader fuzz: change one row of one section of a valid document.  The
# loader must either accept the result or raise InputError naming a row;
# a mutated reference row must be named itself, while a mutated node row
# may surface as a dangling reference in another section.

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_ROW_LOCATION = re.compile(r"\.[a-z]+\[\d+\]")


def _valid_fragment_doc():
    f, _ = three_sort_step_fixture()
    doc = fragment_to_dict(complete(f))
    doc["constants"] = [["0", 0, "a_r"], ["1", 0, "b_r"]]
    return doc


@st.composite
def _row_mutation(draw, doc, sections):
    """(section name, row index, mutated copy of doc).  Sections are key
    paths into doc; rows are lists or objects."""
    path = draw(st.sampled_from(sections))
    out = copy.deepcopy(doc)
    rows = out
    for key in path:
        rows = rows[key]
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    ids = st.sampled_from(sorted(n["id"] for n in doc.get(
        "nodes", doc.get("fragment", {}).get("nodes", []))) or ["x"])
    value = _JSON | ids | st.lists(ids | _JSON, max_size=4)
    op = draw(st.sampled_from(("truncate", "extend", "replace")))
    if op == "replace":
        rows[i] = draw(value)
    elif isinstance(row, dict):
        key = draw(st.sampled_from(sorted(set(row) | {"id", "level",
                                                      "sort", "edge"})))
        rows[i] = dict(row)
        if op == "truncate":
            rows[i].pop(key, None)
        else:
            rows[i][key] = draw(value)
    else:
        rows[i] = row[:-1] if op == "truncate" else row + [draw(value)]
    return path[-1], i, out


def _loads_or_names_row(load, doc, section, i):
    try:
        load(doc)
    except InputError as exc:
        if section == "nodes":
            assert _ROW_LOCATION.search(exc.location), exc.location
        else:
            assert ".%s[%d]" % (section, i) in exc.location, exc.location


_FRAGMENT_DOC = _valid_fragment_doc()
_FRAGMENT_SECTIONS = [(s,) for s in ("nodes", "order", "meet", "suc", "pre",
                                     "lim", "g", "constants")]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_fragment_rows(data):
    assert all(_FRAGMENT_DOC[s] for (s,) in _FRAGMENT_SECTIONS)
    section, i, doc = data.draw(_row_mutation(_FRAGMENT_DOC,
                                              _FRAGMENT_SECTIONS))
    _loads_or_names_row(fragment_from_dict, doc, section, i)


# Formula reader fuzz: well-formed formulas, each at times damaged in
# one list at any depth (cut short, lengthened or given a stray entry),
# and arbitrary JSON values.
_TERM_DOC = st.recursive(
    st.builds(lambda i: ["var", i], st.integers(0, 3))
    | st.builds(lambda eta, i: ["const", [eta, i]], st.sampled_from("r0"),
                st.integers(0, 2)),
    lambda t: st.builds(lambda op, a, b: [op, a, b],
                        st.sampled_from(("wedge", "suc")), t, t)
    | st.builds(lambda op, a: [op, a], st.sampled_from(("pre", "lim", "g")),
                t)
    | st.builds(lambda a: ["g", a, ["r", "0"]], t),
    max_leaves=4)
_FORMULA_DOC = st.recursive(
    st.builds(lambda rel, a, b: ["atom", rel, a, b], st.sampled_from("<="),
              _TERM_DOC, _TERM_DOC),
    lambda phi: st.builds(lambda p: ["not", p], phi)
    | st.builds(lambda op, ps: [op] + ps, st.sampled_from(("and", "or")),
                st.lists(phi, max_size=3)),
    max_leaves=4)
_STRAY = st.sampled_from((None, True, -1, 0.5, "", "var", [], {}))


@st.composite
def _damaged(draw, doc):
    lists = []

    def walk(v):
        if isinstance(v, list):
            lists.append(v)
            for x in v:
                walk(x)

    doc = copy.deepcopy(doc)
    walk(doc)
    target = draw(st.sampled_from(lists))
    how = draw(st.sampled_from(("keep", "cut", "lengthen", "stray")))
    if how == "cut":
        target.pop()
    elif how == "lengthen":
        target.append(draw(_STRAY))
    elif how == "stray":
        target[draw(st.integers(0, len(target) - 1))] = draw(_STRAY)
    return doc


@settings(max_examples=400, deadline=None)
@given(_FORMULA_DOC.flatmap(_damaged) | _JSON)
def test_fuzz_formula_reader(doc):
    """Every JSON value is a formula or an InputError, never another
    exception."""
    try:
        phi = formula_from_list(doc, "--phi")
    except InputError as exc:
        assert exc.location.startswith("--phi")
    else:
        assert isinstance(phi, tuple) and phi[0] in ("atom", "not", "and",
                                                     "or")


@st.composite
def _id_swap(draw, doc):
    """Copy of doc with one to three node ids, each in one row of the
    order, meet, suc, pre, lim or G section, replaced by other node ids.
    Unlike most row mutations, such documents load, and they often fail
    validation."""
    out = copy.deepcopy(doc)
    ids = sorted(n["id"] for n in doc["nodes"])
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(("order", "meet", "suc", "pre", "lim",
                                        "g")))
        rows = out[section]
        if section == "g":
            rows = rows[draw(st.integers(0, len(rows) - 1))]["entries"]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ids))
    return out


# Row mutations of _FRAGMENT_DOC seldom load (28 of 300 in one count,
# none of them with a SET_CHECKED report); every id swap loads, and about
# one in seven has such a report.  So seven draws in eight are id swaps.
_VALIDATE_FUZZ = st.integers(0, 7).flatmap(
    lambda i: _id_swap(_FRAGMENT_DOC) if i else _row_mutation(
        _FRAGMENT_DOC, _FRAGMENT_SECTIONS).map(lambda m: m[2]))


@settings(max_examples=300, deadline=None)
@given(_VALIDATE_FUZZ)
def test_fuzz_validate_matches_reference_loops(doc):
    """On every row mutation or id swap that loads, validate's report
    equals the reference validator's, and its reports of the SET_CHECKED
    axioms equal the reference loops', in full and in order."""
    try:
        f = fragment_from_dict(doc)
    except InputError:
        return
    full = validate(f)
    assert full == validate_reference(f)
    rep = [r for r in full if r.split(":")[0] in SET_CHECKED]
    assert rep == set_checked_reports(f)


def test_fragment_short_order_row_reports_location():
    doc = fragment_to_dict(chain(2))
    doc["order"][0] = ["n00"]
    with pytest.raises(InputError) as exc:
        fragment_from_dict(doc)
    assert exc.value.location == "fragment.order[0]"


@pytest.mark.parametrize("shape", [
    {"indices": ["a", 1], "root": "a"},
    {"indices": ["a"], "root": "a", "parent": [["a"]]},
    {"indices": ["a", "b"], "root": "a", "parent": {"a": "b", "b": "a"}},
    {"indices": ["a"], "root": "b"},
])
def test_malformed_shape_reports_location(shape):
    doc = fragment_to_dict(chain(2))
    doc["shape"] = shape
    with pytest.raises(InputError) as exc:
        fragment_from_dict(doc)
    assert exc.value.location == "fragment.shape"


def test_shape_cycle_is_named():
    doc = fragment_to_dict(chain(2))
    doc["shape"] = {"indices": ["a", "b"], "root": "a",
                    "parent": {"a": "b", "b": "a"}}
    with pytest.raises(InputError) as exc:
        fragment_from_dict(doc)
    assert exc.value.location == "fragment.shape"
    assert "shape-cycle" in str(exc.value)


@st.composite
def _shape_mutation(draw, doc):
    """Copy of doc with one field of its shape section, or one entry of
    that field, dropped or replaced."""
    out = copy.deepcopy(doc)
    shape = out["shape"]
    key = draw(st.sampled_from(sorted(shape)))
    names = st.sampled_from(sorted(shape["indices"]) + ["x"])
    value = (_JSON | names | st.lists(names | _JSON, max_size=4)
             | st.dictionaries(names, names | _JSON, max_size=3))
    field = shape[key]
    op = draw(st.sampled_from(("drop", "replace", "entry")))
    if op == "drop":
        del shape[key]
    elif op == "replace" or not field or isinstance(field, str):
        shape[key] = draw(value)
    elif isinstance(field, list):
        field[draw(st.integers(0, len(field) - 1))] = draw(value)
    else:
        field[draw(names)] = draw(value)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_fragment_shape(data):
    doc = data.draw(_shape_mutation(_FRAGMENT_DOC))
    try:
        f = fragment_from_dict(doc)
    except InputError:
        return
    assert validate_shape(f.shape) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzz_coloring_rows(data):
    doc = coloring_to_dict(Coloring(5, 3, {(0, 1): 3, (1, 4): 1,
                                           (0, 2, 3): 2}, 0))
    section, i, doc = data.draw(_row_mutation(doc, [("entries",)]))
    _loads_or_names_row(coloring_from_dict, doc, section, i)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzz_ptriple_rows(data):
    doc = ptriple_to_dict(six_chain_base())
    sections = [("d",), ("e",)] + [("fragment", s) for s in
                                   ("nodes", "order", "meet", "pre", "lim")]
    assert all(doc[s[0]] if len(s) == 1 else doc["fragment"][s[1]]
               for s in sections)
    section, i, doc = data.draw(_row_mutation(doc, sections))
    _loads_or_names_row(ptriple_from_dict, doc, section, i)


def test_coloring_round_trip(tmp_path):
    c = Coloring(5, 2, {(0, 1): 3, (1, 4): 1}, 0)
    p = tmp_path / "col.json"
    save_coloring(c, str(p))
    d = load_coloring(str(p))
    assert d.n == c.n and d.arity == c.arity and d.default == c.default
    assert d.table == c.table


def test_coloring_malformed():
    with pytest.raises(InputError):
        coloring_from_dict({"arity": 2})


@pytest.mark.parametrize("key, value", [
    ("n", 2.9), ("n", "7"), ("n", True), ("arity", 2.0), ("arity", None),
    ("default", False), ("default", "0")])
def test_coloring_integers_are_strict(key, value):
    """n, arity and default load only as JSON integers, and the error
    names the field."""
    doc = {"n": 5, "arity": 2, key: value}
    with pytest.raises(InputError) as exc:
        coloring_from_dict(doc)
    assert exc.value.location == "coloring." + key


@pytest.mark.parametrize("key", [[0.5, 1], [True, 2], [1, "3"], "01", {}])
def test_coloring_key_members_are_strict(key):
    """Each member of an entry's key loads only as a JSON integer, and
    the error names the entry."""
    doc = {"n": 5, "arity": 2, "entries": [[[0, 1], 1], [key, 4]]}
    with pytest.raises(InputError) as exc:
        coloring_from_dict(doc)
    assert exc.value.location == "coloring.entries[1]"


def test_ptriple_round_trip(tmp_path):
    ptr = six_chain_base()
    p = tmp_path / "p.json"
    save_ptriple(ptr, str(p))
    q = load_ptriple(str(p))
    assert _fragments_equal(ptr.tree, q.tree)
    assert q.d == ptr.d
    # e-labels are stringified on save
    assert q.e == {x: str(lab) for x, lab in ptr.e.items()}


def test_gluespec_round_trip(tmp_path):
    w = Ordinal.omega()

    def base(pref):
        return from_standard_tree(
            {pref + "0": Ordinal(), pref + "l": w, pref + "s": w.plus(1)},
            {(pref + "0", pref + "l"), (pref + "0", pref + "s"),
             (pref + "l", pref + "s")})

    save_fragment(base("b"), str(tmp_path / "base.json"))
    save_fragment(base("w"), str(tmp_path / "wing.json"))
    doc = {
        "s_prime": {"indices": ["r"], "root": "r",
                    "parent": {}, "labels": {"r": "r"}},
        "base": "base.json",
        "boundary": [{"nu": "r", "eps": 0, "path": "wing.json"}],
        "connectors": [{"nu": "r", "eps": 0, "entries": [["bs", "w0"]]}],
    }
    p = tmp_path / "glue.json"
    p.write_text(json.dumps(doc))
    g = load_gluespec(str(p))
    out = star_construct(g)
    assert out.g_of(("r", "r.0.r"), "bs") == "w0"


def test_gluespec_malformed_boundary(tmp_path):
    save_fragment(chain(2), str(tmp_path / "base.json"))
    doc = {"s_prime": {"indices": ["r"], "root": "r", "parent": {},
                       "labels": {"r": "r"}},
           "base": "base.json",
           "boundary": [{"eps": 0, "path": "base.json"}]}
    p = tmp_path / "glue.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError) as exc:
        load_gluespec(str(p))
    assert "boundary[0]" in exc.value.location


@pytest.mark.parametrize("block, key, value", [
    ("boundary", "nu", 5), ("connectors", "nu", None),
    ("connectors", "nu", ["r"]), ("boundary", "eps", 0.0),
    ("connectors", "eps", "0"), ("boundary", "eps", False)])
def test_gluespec_block_keys_are_typed(tmp_path, block, key, value):
    """A boundary or connector block's nu is an index name and its eps
    an integer; anything else is refused at that field."""
    save_fragment(chain(2), str(tmp_path / "base.json"))
    doc = {"s_prime": {"indices": ["r"], "root": "r", "parent": {},
                       "labels": {"r": "r"}},
           "base": "base.json",
           "boundary": [{"nu": "r", "eps": 0, "path": "base.json"}],
           "connectors": [{"nu": "r", "eps": 0, "entries": []}]}
    doc[block][0][key] = value
    p = tmp_path / "glue.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError) as exc:
        load_gluespec(str(p))
    assert exc.value.location == "%s.%s[0].%s" % (p, block, key)


@pytest.mark.parametrize("base", [None, 5, ["base.json"]])
def test_gluespec_base_not_a_path_reports_location(tmp_path, base):
    doc = {"s_prime": {"indices": ["r"], "root": "r", "parent": {},
                       "labels": {"r": "r"}}}
    if base is not None:
        doc["base"] = base
    p = tmp_path / "glue.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError) as exc:
        load_gluespec(str(p))
    assert exc.value.location == str(p) + ".base"


@pytest.mark.parametrize("label", [["x"], {"x": 1}])
def test_ptriple_unhashable_label_reports_location(label):
    doc = ptriple_to_dict(six_chain_base())
    doc["e"][1][1] = label
    with pytest.raises(InputError) as exc:
        ptriple_from_dict(doc)
    assert exc.value.location == "ptriple.e[1]"


@pytest.mark.parametrize("text", ["[1,", "[" * 5000 + "]" * 5000])
def test_parse_json_faults_are_input_errors(text):
    with pytest.raises(InputError) as exc:
        parse_json(text, "--phi")
    assert exc.value.location == "--phi"


def test_file_that_is_not_text(tmp_path):
    p = tmp_path / "binary.json"
    p.write_bytes(b"\xff{}")
    with pytest.raises(InputError) as exc:
        load_fragment(str(p))
    assert exc.value.location == str(p)


def test_term_and_formula_from_list():
    t = term_from_list(["wedge", ["var", 0], ["lim", ["var", 1]]])
    assert t == Term.wedge(Term.var(0), Term.lim(Term.var(1)))
    phi = formula_from_list(
        ["and", ["atom", "<", ["var", 0], ["var", 1]],
         ["not", ["atom", "=", ["var", 0], ["var", 1]]]])
    f = chain(3)
    assert eval_formula(f, phi, ("n00", "n02"))


def test_term_from_list_rejects_garbage():
    with pytest.raises(InputError):
        term_from_list(["frob", 1])
    with pytest.raises(InputError):
        term_from_list({})
    with pytest.raises(InputError):
        formula_from_list(["xor", ["var", 0]])


@pytest.mark.parametrize("n", [400, 900])
@pytest.mark.parametrize("op", ["and", "pre"])
def test_deep_nesting_is_an_input_error(op, n):
    """Past MAX_NESTING lists the readers refuse the formula, naming the
    first list too deep, before anything recurses that far."""
    with pytest.raises(InputError) as exc:
        formula_from_list(nested_formula(op, n), "--phi")
    assert str(exc.value).startswith("nested more than 200 lists deep")
    # the atom is one list and its term one more
    top = "--phi" + "[1]" * 200 if op == "and" else "--phi[2]" + "[1]" * 199
    assert exc.value.location == top


@pytest.mark.parametrize("op", ["and", "pre"])
def test_nesting_up_to_the_cap_evaluates(op):
    assert MAX_NESTING == 200
    phi = formula_from_list(nested_formula(op, 198))
    assert eval_formula(chain(3), phi, ("n00",)) == (op == "and")
    with pytest.raises(InputError):
        formula_from_list(nested_formula(op, 199))


def test_write_series_csv(tmp_path):
    p = tmp_path / "series.csv"
    write_series_csv(str(p), [(1, 0, 1, 4), (2, 0, 1, 8)])
    with open(p) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["set_size", "k", "n", "count"]
    assert rows[1:] == [["1", "0", "1", "4"], ["2", "0", "1", "8"]]
