import pytest

from treedesk.shape import (
    EMPTY_SHAPE, POINT_SHAPE, ShapeTree, UnknownIndex, binary_shape,
    chain_shape, decompose, validate_shape,
)


def test_empty_and_point():
    assert len(EMPTY_SHAPE) == 0
    assert not validate_shape(EMPTY_SHAPE)
    assert len(POINT_SHAPE) == 1
    assert POINT_SHAPE.is_chain()
    assert POINT_SHAPE.longest_branch() == 1


def test_chain_shape():
    c = chain_shape(4)
    assert c.indices == ("0", "1", "2", "3")
    assert c.root == "0"
    assert c.is_chain()
    assert c.longest_branch() == 4
    assert c.suc_pairs() == [("0", "1"), ("1", "2"), ("2", "3")]
    assert c.ancestors("3") == ["3", "2", "1", "0"]
    assert c.r_of("2") == 3
    assert not validate_shape(c)


def test_binary_shape():
    b = binary_shape(2)
    assert len(b) == 7
    assert not b.is_chain()
    assert b.longest_branch() == 3
    assert set(b.children(b.root)) == {"r0", "r1"}
    assert not validate_shape(b)


def test_ancestors_unknown_index():
    with pytest.raises(UnknownIndex):
        chain_shape(2).ancestors("9")


def test_decompose():
    root, comps = decompose(binary_shape(1))
    assert root == "r"
    assert len(comps) == 2
    assert all(len(c) == 1 for c in comps)
    _, none = decompose(POINT_SHAPE)
    assert none == []


def test_validate_catches_bad_parent():
    s = ShapeTree(("a", "b"), "a", {"b": "zzz"})
    assert validate_shape(s)


def test_validate_catches_two_roots():
    s = ShapeTree(("a", "b"), "a", {})
    assert validate_shape(s)


def test_validate_names_a_cycle_without_parentless_index():
    s = ShapeTree(("a", "b"), "a", {"a": "b", "b": "a"})
    assert validate_shape(s) == ["shape-cycle: at 'a'", "shape-cycle: at 'b'"]


def test_equal_shapes_hash_equal():
    assert hash(chain_shape(3)) == hash(chain_shape(3))
    assert {chain_shape(3): "c", binary_shape(1): "b"}[chain_shape(3)] == "c"
    assert len({chain_shape(2), chain_shape(2), chain_shape(3)}) == 2


def test_shape_copies_its_maps():
    parent, labels = {"b": "a"}, {"a": "x"}
    s = ShapeTree(("a", "b"), "a", parent, labels)
    parent["c"], labels["b"] = "a", "y"
    assert dict(s.parent) == {"b": "a"} and dict(s.labels) == {"a": "x"}
