import argparse
import json
import pathlib
import random
import shlex

import pytest

from gen import (nested_formula, random_closed_fragment,
                 random_standard_fragment, six_chain_base,
                 three_sort_step_fixture)
from treedesk import cli
from treedesk.cli import main
from treedesk.fileio import (
    fragment_to_dict, ptriple_to_dict, save_coloring, save_fragment,
    save_ptriple,
)
from treedesk.ordinal import Ordinal
from treedesk.partition import Coloring
from treedesk.structure import complete, from_standard_tree


@pytest.fixture
def chain_file(tmp_path):
    levels = {"n%02d" % i: Ordinal.nat(i) for i in range(6)}
    names = sorted(levels)
    edges = {(names[i], names[j]) for i in range(6) for j in range(i + 1, 6)}
    p = tmp_path / "chain.json"
    save_fragment(from_standard_tree(levels, edges), str(p))
    return str(p)


@pytest.fixture
def step_file(tmp_path):
    f, win = three_sort_step_fixture()
    p = tmp_path / "step.json"
    save_fragment(complete(f), str(p))
    return str(p), win


def _json_run(capsys, argv):
    rc = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return rc, doc


def test_validate_ok(capsys, chain_file):
    rc, doc = _json_run(capsys, ["--format", "json", "validate", chain_file])
    assert rc == 0
    assert doc["violations"] == []
    assert doc["payload"]["nodes"] == 6
    # input digests are 12-hex-digit prefixes
    assert len(doc["inputs"]["file"]) == 12
    int(doc["inputs"]["file"], 16)


def test_global_flags_after_subcommand(capsys, chain_file):
    rc, doc = _json_run(capsys, ["validate", chain_file, "--format", "json"])
    assert rc == 0 and doc["command"] == "validate"


def test_validate_reports_violations(capsys, tmp_path, chain_file):
    with open(chain_file) as fh:
        doc = json.load(fh)
    doc["order"].append(["n03", "n00"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, rep = _json_run(capsys, ["--format", "json", "validate", str(bad)])
    assert rc == 1
    assert rep["violations"]


def test_missing_file_is_usage_error(capsys, tmp_path):
    rc = main(["validate", str(tmp_path / "ghost.json")])
    assert rc == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_lift_has_no_colors_flag(capsys, tmp_path):
    path = tmp_path / "p.json"
    save_ptriple(six_chain_base(), str(path))
    t = six_chain_base().suc_lim()[-1]
    assert main(["pspace", "lift", str(path), "--t", t]) == 0
    assert main(["pspace", "lift", str(path), "--t", t,
                 "--colors", "2"]) == 2


def test_complete_writes_output(capsys, tmp_path):
    f, _ = three_sort_step_fixture()
    src = tmp_path / "raw.json"
    out = tmp_path / "done.json"
    save_fragment(f, str(src))
    rc, doc = _json_run(capsys, ["--format", "json", "complete", str(src),
                                 "-o", str(out)])
    assert rc == 0
    assert doc["payload"]["nodes_after"] >= doc["payload"]["nodes_before"]
    rc2, doc2 = _json_run(capsys, ["--format", "json", "validate", str(out)])
    assert rc2 == 0


def test_close(capsys, chain_file):
    rc, doc = _json_run(capsys, ["--format", "json", "close", chain_file,
                                 "--nodes", "n02", "--k", "0"])
    assert rc == 0
    assert doc["payload"]["closure"] == ["n00", "n02"]


def test_types_code_and_count(capsys, chain_file):
    rc, doc = _json_run(capsys, ["--format", "json", "types", "code",
                                 chain_file, "--tuple", "n03", "--k", "1"])
    assert rc == 0 and len(doc["payload"]["code"]) == 16
    rc, doc = _json_run(capsys, ["--format", "json", "types", "count",
                                 chain_file, "--set", "n02", "--k", "0"])
    assert rc == 0 and doc["payload"]["classes"] == 4


def test_types_vc_degree_csv(capsys, tmp_path):
    out = tmp_path / "series.csv"
    rc, doc = _json_run(capsys, ["--format", "json", "types", "vc-degree",
                                 "--family", "chain", "--k", "0",
                                 "--csv", str(out)])
    assert rc == 0
    assert doc["payload"]["degree_k0"] == 1
    header = out.read_text().splitlines()[0]
    assert header == "set_size,k,n,count"


def test_qe_m2(capsys):
    rc, doc = _json_run(capsys, ["--format", "json", "qe", "m2",
                                 "--m1", "3", "--k", "1",
                                 "--shape", "point"])
    assert rc == 0 and doc["payload"]["m2"] == 7


def test_qe_extend(capsys, tmp_path, chain_file):
    out = tmp_path / "ext.json"
    rc, doc = _json_run(capsys, ["--format", "json", "qe", "extend",
                                 chain_file, chain_file,
                                 "--abar", "n03", "--bbar", "n03",
                                 "--c", "n01", "--m1", "1", "-o", str(out)])
    assert rc == 0
    assert doc["payload"]["d"] == "n01"
    assert out.exists()


def test_qe_extend_across_shapes_is_usage_error(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_fragment(three_sort_step_fixture()[0], str(a))
    save_fragment(random_closed_fragment(random.Random(1), 16), str(b))
    rc = main(["qe", "extend", str(a), str(b), "--abar", "", "--bbar", "",
               "--c", "a_m0", "--m1", "0"])
    cap = capsys.readouterr()
    assert rc == 2
    assert "Traceback" not in cap.out + cap.err
    assert [line for line in cap.out.splitlines()
            if line.startswith("violation:")] == [
        "violation: SortError: fragments must share a shape"]


def test_qe_table(capsys, chain_file):
    phi = json.dumps(["atom", "<", ["var", 0], ["var", 1]])
    rc, doc = _json_run(capsys, ["--format", "json", "qe", "table",
                                 chain_file, "--phi", phi, "--nvars", "1"])
    assert rc == 0 and doc["payload"]["configs"] >= 1


def test_qe_table_bad_relation(capsys, chain_file):
    phi = json.dumps(["atom", "lt", ["var", 0], ["var", 1]])
    assert main(["qe", "table", chain_file, "--phi", phi,
                 "--nvars", "1"]) == 2


def test_library_bug_propagates(monkeypatch, chain_file):
    """Only documented errors exit 2: a bare KeyError from a library
    call is a bug, and main lets it through."""
    def bug(*args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "validate", bug)
    with pytest.raises(KeyError, match="bug"):
        main(["validate", chain_file])


def test_indis_classify_and_iter(capsys, step_file):
    path, win = step_file
    seq = ",".join(win)
    rc, doc = _json_run(capsys, ["--format", "json", "indis", "classify",
                                 path, "--seq", seq])
    assert rc == 0 and doc["payload"]["tag"] == "AlmostIncreasing"
    rc, doc = _json_run(capsys, ["--format", "json", "indis", "h-iter",
                                 path, "--seq", seq])
    assert rc == 0 and doc["payload"][-1]["tag"] == "Fan"


def test_indis_check_fails_on_chain(capsys, chain_file):
    rc, doc = _json_run(capsys, ["--format", "json", "indis", "check",
                                 chain_file, "--seq", "n01,n02,n03,n04"])
    assert rc == 1 and doc["payload"]["indiscernible"] is False


@pytest.mark.parametrize("command,flag", [
    ("check", "--n"), *((command, flag) for command in ("classify", "h-iter")
                        for flag in ("--k", "--r", "--n"))])
def test_indis_rejects_flags_it_would_not_read(capsys, chain_file, command,
                                               flag):
    rc = main(["indis", command, chain_file, "--seq", "n01,n02", flag, "1"])
    assert rc == 2
    assert "unrecognized arguments: %s 1" % flag in capsys.readouterr().err


def test_indis_search_exit_codes(capsys, chain_file):
    # exit 0 means no window found
    rc, doc = _json_run(capsys, ["--format", "json", "indis", "search",
                                 chain_file, "--set",
                                 "n00,n01,n02,n03,n04,n05", "--L", "4"])
    assert rc == 0 and doc["payload"] is None


def test_ramsey_homog(capsys, tmp_path):
    p = tmp_path / "col.json"
    save_coloring(Coloring(5, 2, {}, 0), str(p))
    rc, doc = _json_run(capsys, ["--format", "json", "ramsey", "homog",
                                 str(p), "--delta", "3"])
    assert rc == 0 and doc["payload"]["indices"] == [0, 1, 2]


def test_ramsey_homog_answers_on_a_huge_ground_set(capsys, tmp_path):
    """A ground size far past memory costs only the candidates the
    search visits."""
    p = tmp_path / "col.json"
    save_coloring(Coloring(10 ** 30, 2, {}, 0), str(p))
    rc, doc = _json_run(capsys, ["--format", "json", "ramsey", "homog",
                                 str(p), "--delta", "3"])
    assert rc == 0 and doc["payload"] == {
        "indices": [0, 1, 2], "colors": {"1": 0, "2": 0}}


def test_pspace_pipeline(capsys, tmp_path):
    p = tmp_path / "p.json"
    save_ptriple(six_chain_base(), str(p))
    rc, doc = _json_run(capsys, ["--format", "json", "pspace", "validate",
                                 str(p)])
    assert rc == 0 and doc["payload"]["suc_lim"] == ["n001", "n003", "n005"]
    out = tmp_path / "q.json"
    rc, doc = _json_run(capsys, ["--format", "json", "pspace", "q-build",
                                 str(p), "--alpha-max", "2", "-o", str(out)])
    assert rc == 0 and doc["payload"]["qnodes"] >= 1
    assert out.exists()
    rc, doc = _json_run(capsys, ["--format", "json", "pspace", "lift",
                                 str(p), "--t", "n003"])
    assert rc == 0 and doc["payload"]["eta"][-1] == "n003"


def test_glue_star(capsys, tmp_path):
    w = Ordinal.omega()

    def base(pref):
        return from_standard_tree(
            {pref + "0": Ordinal(), pref + "l": w, pref + "s": w.plus(1)},
            {(pref + "0", pref + "l"), (pref + "0", pref + "s"),
             (pref + "l", pref + "s")})

    save_fragment(base("b"), str(tmp_path / "base.json"))
    save_fragment(base("w"), str(tmp_path / "wing.json"))
    spec = {
        "s_prime": {"indices": ["r"], "root": "r", "parent": {},
                    "labels": {"r": "r"}},
        "base": "base.json",
        "boundary": [{"nu": "r", "eps": 0, "path": "wing.json"}],
        "connectors": [{"nu": "r", "eps": 0, "entries": [["bs", "w0"]]}],
    }
    p = tmp_path / "glue.json"
    p.write_text(json.dumps(spec))
    out = tmp_path / "glued.json"
    rc, doc = _json_run(capsys, ["--format", "json", "glue", "star",
                                 str(p), "-o", str(out)])
    assert rc == 0 and doc["payload"]["sorts"] == 2
    assert out.exists()


def test_demo_case1(capsys, tmp_path):
    out = tmp_path / "witness.json"
    rc, doc = _json_run(capsys, ["--format", "json", "demo", "case1",
                                 "-o", str(out)])
    assert rc == 0
    assert doc["payload"]["witness_window"] is None
    assert doc["payload"]["control_window"] is not None
    assert out.exists()


def test_text_format_default(capsys, chain_file):
    rc = main(["validate", chain_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("command: validate")
    assert "OK" in out


# Every subcommand on wrong input: exit 2, one violation line naming the
# fault, no traceback.  Each case is (argv, text the violation names);
# {name} stands for the path of one of the files that the fixture
# `wrong_input_files` writes.

WRONG_INPUTS = {
    "validate-unknown-sort": (["validate", "{badsort}"], "unknown sort 'zz'"),
    "validate-dangling-node": (["validate", "{dangling}"],
                               "dangling node reference 'zz'"),
    "complete-zero-budget": (["complete", "{unclosed}", "--budget-nodes", "0"],
                             "node budget 0 exceeded"),
    "complete-zero-global-budget": (
        ["--budget-nodes", "0", "complete", "{unclosed}"],
        "node budget 0 exceeded"),
    "close-unknown-node": (["close", "{chain}", "--nodes", "zz"],
                           "unknown node 'zz'"),
    # with several unknown nodes the least is named, whatever the hash seed
    "close-unknown-nodes": (["close", "{chain}", "--nodes", "zz,yy,xx"],
                            "unknown node 'xx'"),
    "close-unclosed": (["close", "{unclosed}", "--nodes", "n000"],
                       "NotClosed"),
    **{"%s-negative-rank" % name: (
        argv + ["--k", "-1"], "closure rank -1 is not a natural number")
       for name, argv in (
           ("close", ["close", "{chain}", "--nodes", "n01"]),
           ("types-code", ["types", "code", "{chain}", "--tuple", "n01"]),
           ("types-count", ["types", "count", "{chain}"]),
           ("types-vc-degree", ["types", "vc-degree"]))},
    "types-code-unknown-node": (["types", "code", "{chain}", "--tuple", "zz"],
                                "unknown node 'zz'"),
    "types-code-unclosed": (["types", "code", "{unclosed}", "--tuple",
                             "n000"], "NotClosed"),
    "types-count-zero-budget": (["--budget-tuples", "0", "types", "count",
                                 "{chain}"], "6 tuples exceed budget 0"),
    "types-count-unclosed": (["types", "count", "{unclosed}"], "NotClosed"),
    "types-count-long-tuples": (["types", "count", "{chain}", "--n", "10000"],
                                "6^10000 tuples exceed budget 250000"),
    "types-count-unknown-node": (["types", "count", "{chain}", "--set", "zz"],
                                 "unknown node 'zz'"),
    "types-count-negative-length": (["types", "count", "{chain}", "--n", "-1"],
                                    "tuple length must be non-negative"),
    "types-vc-degree-zero-budget": (["types", "vc-degree", "--budget-tuples",
                                     "0"], "exceed budget 0"),
    "qe-m2-unknown-shape": (["qe", "m2", "--m1", "1", "--shape", "nope"],
                            "unknown shape spec 'nope'"),
    "qe-m2-negative": (["qe", "m2", "--m1", "-1"], "naturals expected"),
    "qe-m2-many-steps": (["qe", "m2", "--m1", "0", "--k", "5000", "--shape",
                          "point"], "BudgetExceeded: extension rank"),
    "qe-m2-tall-shape": (["qe", "m2", "--m1", "0", "--k", "1", "--shape",
                          "chain:600"], "BudgetExceeded: extension rank"),
    **{"qe-m2-shape-%s" % name: (
        ["qe", "m2", "--m1", "1", "--shape", spec],
        "shape size %r is not a natural number (at --shape)" % size)
       for name, spec, size in (("not-a-number", "chain:x", "x"),
                                ("negative", "chain:-1", "-1"),
                                ("missing-size", "binary", ""))},
    "qe-extend-mismatched-shapes": (
        ["qe", "extend", "{step}", "{chain}", "--abar", "", "--bbar", "",
         "--c", "a_m0"], "fragments must share a shape"),
    "qe-extend-unknown-node": (
        ["qe", "extend", "{chain}", "{chain}", "--abar", "n01", "--bbar",
         "n01", "--c", "zz"], "unknown node 'zz'"),
    "qe-extend-unclosed": (
        ["qe", "extend", "{unclosed}", "{unclosed}", "--abar", "n000",
         "--bbar", "n000", "--c", "n001"], "NotClosed"),
    "qe-extend-zero-budget": (
        ["--budget-nodes", "0", "qe", "extend", "{chain}", "{chain}",
         "--abar", "n01", "--bbar", "n01", "--c", "n02"],
        "extension exceeds node budget"),
    "qe-table-zero-budget": (
        ["qe", "table", "{chain}", "--phi", '["atom","<",["var",0],["var",1]]',
         "--nvars", "1", "--budget-tuples", "0"], "tuple budget exhausted"),
    "qe-table-malformed-formula": (
        ["qe", "table", "{chain}", "--phi", "notjson", "--nvars", "1"],
        "not valid JSON"),
    "qe-table-negative-nvars": (
        ["qe", "table", "{chain}", "--phi", '["atom","=",["var",0],["var",0]]',
         "--nvars", "-1"], "nvars must be non-negative"),
    "qe-table-unbound-variable": (
        ["qe", "table", "{chain}", "--phi", '["atom","<",["var",0],["var",3]]',
         "--nvars", "1"], "unbound variable x3"),
    **{"qe-table-%s" % name: (
        ["qe", "table", "{chain}", "--phi", phi, "--nvars", "1"], fault)
       for name, phi, fault in (
           ("var-without-index", '["atom","<",["var"],["var",1]]',
            "takes 1 argument(s), not 0 (at --phi[2])"),
           ("atom-without-terms", '["atom","<"]',
            "takes 3 argument(s), not 1 (at --phi)"),
           ("not-without-formula", '["not"]',
            "takes 1 argument(s), not 0 (at --phi)"),
           ("const-not-a-pair", '["atom","<",["const",5],["var",1]]',
            "not [sort, index] (at --phi[2][1])"),
           ("negative-variable", '["atom","<",["var",-1],["var",1]]',
            "not a natural number (at --phi[2][1])"),
           ("unknown-relation", '["atom","lt",["var",0],["var",1]]',
            "unknown relation 'lt' (at --phi[1])"))},
    # past fileio.MAX_NESTING lists, before evaluation recurses that deep
    **{"qe-table-%d-nested-%s" % (n, op): (
        ["qe", "table", "{chain}", "--phi",
         json.dumps(nested_formula(op, n)), "--nvars", "1"],
        "nested more than 200 lists deep (at --phi%s" % (
            "[1]" if op == "and" else "[2][1]"))
       for op in ("and", "pre") for n in (400, 900)},
    **{"indis-%s-unknown-node" % cmd: (
        ["indis", cmd, "{chain}", "--seq", "zz,n01"], "unknown node 'zz'")
       for cmd in ("check", "ni", "hni", "classify", "h-iter")},
    **{"indis-%s-wrong-sort" % cmd: (
        ["indis", cmd, "{step}", "--seq", "a_s0,b_q0"], "share one sort")
       for cmd in ("check", "ni", "hni", "classify", "h-iter")},
    **{"indis-%s-unclosed" % cmd: (
        ["indis", cmd, "{unclosed}", "--seq", "n000,n001,n002"], "NotClosed")
       for cmd in ("check", "ni", "hni")},
    "indis-h-iter-negative-max-iter": (
        ["indis", "h-iter", "{chain}", "--seq", "n01,n02", "--max-iter", "-1"],
        "max_iter must be non-negative"),
    "indis-search-unknown-node": (
        ["indis", "search", "{chain}", "--set", "zz,n01", "--L", "2"],
        "unknown node 'zz'"),
    "indis-search-zero-budget": (
        ["--budget-tuples", "0", "indis", "search", "{chain}", "--set",
         "n00,n01,n02", "--L", "3"], "search budget exhausted"),
    "indis-search-short-window": (
        ["indis", "search", "{chain}", "--set", "n00,n01", "--L", "1"],
        "at least two entries"),
    "indis-search-unclosed": (
        ["indis", "search", "{unclosed}", "--set", "n000,n001", "--L", "2"],
        "NotClosed"),
    "ramsey-homog-not-a-coloring": (["ramsey", "homog", "{chain}", "--delta",
                                     "2"], "malformed coloring"),
    "ramsey-homog-delta-too-large": (["ramsey", "homog", "{coloring}",
                                      "--delta", "9"], "delta exceeds"),
    "ramsey-homog-negative-delta": (["ramsey", "homog", "{coloring}",
                                     "--delta", "-1"],
                                    "delta must be non-negative"),
    "ramsey-homog-zero-budget": (["ramsey", "homog", "{coloring}",
                                  "--delta", "3", "--budget-tuples", "0"],
                                 "homogeneity search budget"),
    "pspace-validate-not-a-triple": (["pspace", "validate", "{chain}"],
                                     "malformed shape section"),
    "pspace-validate-list-label": (["pspace", "validate", "{listlabel}"],
                                   "class label ['x'] is not a JSON scalar"),
    "pspace-hard-zero-budget": (["pspace", "hard", "{ptriple}", "--delta",
                                 "3", "--budget-tuples", "0"],
                                "hardness search budget"),
    "pspace-q-build-too-long": (["pspace", "q-build", "{ptriple}",
                                 "--alpha-max", "9"],
                                "alpha_max exceeds the candidate count"),
    **{"pspace-q-build-colors-%s" % n: (
        ["pspace", "q-build", "{ptriple}", "--colors", n],
        "colors must be at least 1") for n in ("0", "-1")},
    "pspace-q-build-negative-length": (["pspace", "q-build", "{ptriple}",
                                        "--alpha-max", "-1"],
                                       "alpha_max must be non-negative"),
    "pspace-lift-unknown-node": (["pspace", "lift", "{ptriple}", "--t", "zz"],
                                 "UnknownNode: \"unknown node 'zz'\""),
    "glue-star-not-a-spec": (["glue", "star", "{chain}"],
                             "malformed shape section"),
    "glue-star-no-base": (["glue", "star", "{nobase}"],
                          "base None is not a file path"),
    "glue-star-base-not-a-path": (["glue", "star", "{intbase}"],
                                  "base 5 is not a file path"),
    "glue-star-object-connector": (
        ["glue", "star", "{objconnector}"],
        "connector entry ['n00', {}] is not a pair of node ids (at "),
    "glue-star-missing-base": (["glue", "star", "{missingbase}"],
                               "cannot read 'nowhere.json': No such file "
                               "or directory (at "),
    "glue-star-missing-wing": (["glue", "star", "{missingwing}"],
                               "cannot read 'nowhere.json': No such file "
                               "or directory (at "),
    "glue-star-integer-nu": (["glue", "star", "{intnu}"],
                             "nu 5 is not an index name (at "),
    "glue-star-string-eps": (["glue", "star", "{streps}"],
                             "eps '0' is not an integer (at "),
    **{"ramsey-homog-%s" % name: (
        ["ramsey", "homog", "{%s}" % name, "--delta", "1"],
        "%s is not an integer (at " % fault)
       for name, fault in (("fractional-ground-size", "ground size 2.9"),
                           ("string-ground-size", "ground size '7'"),
                           ("bool-arity", "arity True"),
                           ("float-default", "default color 0.0"),
                           ("fractional-color", "color 1.5"),
                           ("fractional-key", "key member 0.5"))},
    "validate-fractional-constant-index": (
        ["validate", "{fracconstant}"], "constant index 0.5 is not an integer"),
    "pspace-validate-string-color": (["pspace", "validate", "{strcolor}"],
                                     "color '1' is not an integer (at "),
    "pspace-validate-fragment-not-an-object": (
        ["pspace", "validate", "{boolfragment}"],
        "fragment True is not a JSON object (at "),
    "ramsey-homog-huge-ground-over-budget": (
        ["ramsey", "homog", "{hugecoloring}", "--delta", "3",
         "--budget-tuples", "50"], "homogeneity search budget"),
    "ramsey-homog-negative-ground-size": (
        ["ramsey", "homog", "{negcoloring}", "--delta", "0"],
        "ground size -1 is negative (at "),
    "validate-not-text": (["validate", "{binary}"], "not a text file"),
    "demo-zero-budget": (["demo", "case1", "--budget-tuples", "0"],
                         "search budget exhausted"),
    "demo-short-window": (["demo", "case1", "--L", "1"],
                          "at least two entries"),
}


def write_wrong_input_files(d):
    """Write the files that WRONG_INPUTS names into the directory d
    (a pathlib.Path) and return their paths by name."""
    levels = {"n%02d" % i: Ordinal.nat(i) for i in range(6)}
    names = sorted(levels)
    chain = from_standard_tree(levels, {(names[i], names[j])
                                        for i in range(6)
                                        for j in range(i + 1, 6)})
    unclosed = random_standard_fragment(random.Random(3), 12)
    assert unclosed.nodes[:3] == ("n000", "n001", "n002")
    s_prime = {"indices": ["r"], "root": "r", "parent": {},
               "labels": {"r": "r"}}
    docs = {"badsort": fragment_to_dict(chain),
            "dangling": fragment_to_dict(chain),
            "listlabel": ptriple_to_dict(six_chain_base()),
            "nobase": {"s_prime": s_prime},
            "intbase": {"s_prime": s_prime, "base": 5},
            "objconnector": {
                "s_prime": s_prime, "base": "chain.json",
                "boundary": [{"nu": "r", "eps": 0, "path": "step.json"}],
                "connectors": [{"nu": "r", "eps": 0,
                                "entries": [["n00", {}]]}]},
            "missingbase": {"s_prime": s_prime, "base": "nowhere.json"},
            "missingwing": {
                "s_prime": s_prime, "base": "chain.json",
                "boundary": [{"nu": "r", "eps": 0, "path": "nowhere.json"}]},
            "intnu": {
                "s_prime": s_prime, "base": "chain.json",
                "boundary": [{"nu": "r", "eps": 0, "path": "step.json"}],
                "connectors": [{"nu": 5, "eps": 0, "entries": []}]},
            "streps": {
                "s_prime": s_prime, "base": "chain.json",
                "boundary": [{"nu": "r", "eps": "0", "path": "step.json"}]},
            "fracconstant": fragment_to_dict(chain),
            "strcolor": ptriple_to_dict(six_chain_base()),
            "boolfragment": {"fragment": True},
            # every triple (0, 1, j) fails, so the walk runs to the budget
            "hugecoloring": {"n": 10 ** 30, "arity": 2,
                             "entries": [[[0, 1], 1]]},
            "negcoloring": {"n": -1, "arity": 2, "entries": []},
            "fractional-ground-size": {"n": 2.9, "arity": 2},
            "string-ground-size": {"n": "7", "arity": 2},
            "bool-arity": {"n": 5, "arity": True},
            "float-default": {"n": 5, "arity": 2, "default": 0.0},
            "fractional-color": {"n": 5, "arity": 2,
                                 "entries": [[[0, 1], 1.5]]},
            "fractional-key": {"n": 5, "arity": 2,
                               "entries": [[[0.5, 1], 3], [[True, 2], 4]]}}
    docs["badsort"]["nodes"][0]["sort"] = "zz"
    docs["dangling"]["order"].append(["n00", "zz"])
    docs["listlabel"]["e"][0][1] = ["x"]
    docs["fracconstant"]["constants"] = [["r", 0.5, "n00"]]
    docs["strcolor"]["d"][0][1] = "1"
    paths = {name: str(d / ("%s.json" % name)) for name in
             ("chain", "unclosed", "step", "coloring", "ptriple", "binary",
              *docs)}
    save_fragment(chain, paths["chain"])
    save_fragment(unclosed, paths["unclosed"])
    save_fragment(complete(three_sort_step_fixture()[0]), paths["step"])
    save_coloring(Coloring(5, 2, {}, 0), paths["coloring"])
    save_ptriple(six_chain_base(), paths["ptriple"])
    with open(paths["binary"], "wb") as fh:
        fh.write(b"\xff{}")
    for name, doc in docs.items():
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


@pytest.fixture(scope="module")
def wrong_input_files(tmp_path_factory):
    return write_wrong_input_files(tmp_path_factory.mktemp("wrong"))


@pytest.mark.parametrize("case", sorted(WRONG_INPUTS))
def test_wrong_input_exits_2_naming_the_fault(capsys, wrong_input_files,
                                              case):
    argv, fault = WRONG_INPUTS[case]
    rc = main([arg.format(**wrong_input_files) for arg in argv])
    out, err = capsys.readouterr()
    violations = [line for line in out.splitlines()
                  if line.startswith("violation: ")]
    assert rc == 2, out
    assert len(violations) == 1 and fault in violations[0], out
    assert "Traceback" not in out + err


def _leaf_reports(parser):
    """The report names of the parser's leaf commands."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _leaf_reports(sub)
    if (report := parser.get_default("report")) is not None:
        out.add(report)
    return out


def test_readme_command_block_shows_every_leaf():
    """Each line of README's command block parses, and together they
    show every leaf command of the parser."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    shown = set()
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "treedesk", line
        shown.add(parser.parse_args(argv[1:]).report)
    assert shown == _leaf_reports(parser)
    assert len(shown) == 22
