"""Mutation fuzz over every CLI leaf that reads a file.

Each example takes one case of `test_identity.CLI_CASES`, one of the
JSON files it reads (for `glue star`, also the base or the wing that the
spec names) and damages that file at one location: it deletes a key or a
list entry, duplicates a list entry, or replaces a value.  The CLI must
answer with exit 0, 1 or 2 and let no exception escape; an exit 2 on an
input error names where the input went wrong.

The example count keeps the test to about a second.  Rare faults need
thousands of examples (about 9 ms each), so a deeper pass raises
max_examples on a copy of this file.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_identity import CLI_CASES, _write_cli_files

import treedesk
from treedesk.cli import main

# the files each case reads, beyond those its argv names
_GLUE_PARTS = ("base", "wing")

_FILE = re.compile(r"\{(\w+)\}")

_CASES = sorted(name for name, argv in CLI_CASES.items()
                if any(_FILE.search(a) and a != "{out}" for a in argv))

# replacement values: wrong types, out-of-range numbers, unknown names
_VALUES = (None, -1, 0, 1, 10 ** 30, 0.5, True, "", "n99", "r", [], {},
           [[]], ["n00", "n01"], {"id": "n99"})



def _subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


# the errors of the theory, by the name the CLI prints them under: a
# damaged but well-formed input may raise them, and they have no place
# in the file to name
_THEORY = {cls.__name__ for cls in _subclasses(treedesk.TreedeskError)} - {
    "InputError"}


def _locations(doc, path=()):
    """The path of every value in doc, doc itself first."""
    yield path
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _locations(doc[key], path + (key,))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _locations(item, path + (i,))


@st.composite
def _damage(draw, doc):
    """doc with one value deleted, duplicated or replaced."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_locations(doc))))
    value = draw(st.sampled_from(_VALUES))
    if not path:
        return value
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    op = draw(st.sampled_from(("delete", "duplicate", "replace")))
    if op == "delete":
        del parent[last]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[last] = value
    return doc


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = _write_cli_files(d)
    docs = {}
    for name, path in paths.items():
        with open(path) as fh:
            docs[name] = json.load(fh)
    return d, paths, docs


def _targets(name):
    """The file names case `name` reads, each one a damage may hit."""
    files = [m for a in CLI_CASES[name] for m in _FILE.findall(a)
             if m != "out"]
    if "glue" in files:
        files += _GLUE_PARTS
    return files


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_inputs_never_escape(clean_files, data):
    d, paths, docs = clean_files
    name = data.draw(st.sampled_from(_CASES))
    target = data.draw(st.sampled_from(_targets(name)))
    damaged = data.draw(_damage(docs[target]))
    files = dict(paths, out=str(d / "out.json"))
    if target in _GLUE_PARTS:
        spec = dict(docs["glue"])
        if target == "base":
            spec["base"] = "damaged.json"
        else:
            spec["boundary"] = [dict(spec["boundary"][0],
                                     path="damaged.json")]
        files["glue"] = str(d / "damaged_glue.json")
        with open(files["glue"], "w") as fh:
            json.dump(spec, fh)
    else:
        files[target] = str(d / "damaged.json")
    with open(d / "damaged.json", "w") as fh:
        json.dump(damaged, fh)
    argv = [a.format(**files) for a in CLI_CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if rc == 2:
        (line,) = [v for v in out.getvalue().splitlines()
                   if v.startswith("violation: ")]
        cause = line[len("violation: "):].split(":", 1)[0]
        assert "(at " in line or cause in _THEORY, line

