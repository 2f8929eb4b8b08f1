"""One error root: every error the library raises on purpose is a
`TreedeskError` and keeps the builtin base it had before the root."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import treedesk
from treedesk.errors import BadArgument, TreedeskError, UnknownNode
from treedesk.fileio import InputError
from treedesk.shape import UnknownIndex

# Each library error class with the builtin base that callers may catch.
OLD_BASES = {
    treedesk.NotASuccessor: ValueError,
    treedesk.OrdinalParseError: ValueError,
    treedesk.InvalidTree: ValueError,
    treedesk.CannotComplete: RuntimeError,
    treedesk.NotClosed: RuntimeError,
    treedesk.SortError: TypeError,
    treedesk.Incomparable: ValueError,
    treedesk.UndefinedTerm: LookupError,
    treedesk.BudgetExceeded: RuntimeError,
    treedesk.WrongShape: TypeError,
    treedesk.BadSeries: ValueError,
    treedesk.RankTooLow: RuntimeError,
    treedesk.NotAlmostIncreasing: RuntimeError,
    treedesk.ShapeExhausted: RuntimeError,
    treedesk.DisjointnessViolated: ValueError,
    treedesk.AxiomViolated: ValueError,
    InputError: ValueError,
    UnknownIndex: KeyError,
    UnknownNode: KeyError,
    BadArgument: ValueError,
}

SRC = pathlib.Path(treedesk.__file__).parent


def _modules():
    return [importlib.import_module("treedesk." + m.name)
            for m in pkgutil.iter_modules([str(SRC)])]


def _error_classes(namespace):
    return {v for v in vars(namespace).values()
            if isinstance(v, type) and issubclass(v, BaseException)}


@pytest.mark.parametrize("cls", sorted(OLD_BASES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_library_error_has_the_root_and_its_old_base(cls):
    assert issubclass(cls, TreedeskError)
    assert issubclass(cls, OLD_BASES[cls])


def test_every_error_class_is_listed():
    """Each error class that a library module defines is in OLD_BASES
    (or is the root), and the package exports all but UnknownIndex."""
    defined = {c for mod in _modules() for c in _error_classes(mod)
               if c.__module__ == mod.__name__}
    assert defined == set(OLD_BASES) | {TreedeskError}
    assert defined - _error_classes(treedesk) == {UnknownIndex}


def test_no_bare_builtin_raise():
    """No library module raises a bare ValueError, KeyError, TypeError,
    LookupError or RuntimeError: each fault has a typed error."""
    bare = {"ValueError", "KeyError", "TypeError", "LookupError",
            "RuntimeError"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                if isinstance(exc, ast.Name) and exc.id in bare:
                    found.append("%s:%d %s" % (path.name, node.lineno,
                                               exc.id))
    assert found == []
