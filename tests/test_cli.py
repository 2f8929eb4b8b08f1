import json
import random

import pytest

from treedesk.cli import main
from treedesk.fileio import (
    save_coloring, save_fragment, save_ptriple,
)
from treedesk.fixtures import (random_closed_fragment, six_chain_base,
                               three_sort_step_fixture)
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
