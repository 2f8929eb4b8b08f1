import pytest
from hypothesis import given, strategies as st

from treedesk.errors import BadArgument
from treedesk.ordinal import NotASuccessor, Ordinal, OrdinalParseError


def test_zero_properties():
    z = Ordinal()
    assert z.is_zero
    assert z.is_limit
    assert not z.is_successor
    assert str(z) == "0"


def test_nat_and_omega_constructors():
    assert Ordinal.nat(0) == Ordinal()
    assert str(Ordinal.nat(3)) == "3"
    assert str(Ordinal.omega()) == "w"
    assert str(Ordinal.omega(2, 3)) == "w^2*3"
    assert str(Ordinal.omega(1, 2).plus(5)) == "w*2+5"


@pytest.mark.parametrize("text", [
    "0", "1", "17", "w", "w*2", "w^2", "w^3*4", "w+1", "w^2+w*3+7",
])
def test_parse_round_trip(text):
    assert str(Ordinal.parse(text)) == text


def test_parse_rejects_garbage():
    for bad in ("", "w^", "x", "w**2", "w*0"):
        with pytest.raises(OrdinalParseError):
            Ordinal.parse(bad)


def test_parse_absorbs_dominated_terms():
    assert Ordinal.parse("1+w") == Ordinal.omega()
    assert Ordinal.parse("w+w") == Ordinal.omega(1, 2)


def test_ordering():
    chain = [Ordinal(), Ordinal.nat(1), Ordinal.nat(5), Ordinal.omega(),
             Ordinal.omega().plus(1), Ordinal.omega(1, 2),
             Ordinal.omega(2), Ordinal.omega(2, 1).plus(3)]
    for a, b in zip(chain, chain[1:]):
        assert a < b
        assert not b < a and a != b
    assert chain[3] == chain[3] and not chain[3] < chain[3]


def test_successor_predecessor():
    w1 = Ordinal.omega().plus(1)
    assert w1.is_successor
    assert w1.predecessor() == Ordinal.omega()
    assert Ordinal.omega().successor() == w1
    with pytest.raises(NotASuccessor):
        Ordinal.omega().predecessor()
    with pytest.raises(NotASuccessor):
        Ordinal().predecessor()


def test_limb_and_mod_omega():
    a = Ordinal.omega(1, 2).plus(3)
    assert a.limb() == Ordinal.omega(1, 2)
    assert a.mod_omega() == 3
    assert Ordinal.nat(4).limb() == Ordinal()
    assert Ordinal.nat(4).mod_omega() == 4
    assert Ordinal.omega().limb() == Ordinal.omega()
    assert Ordinal.omega().mod_omega() == 0


def test_next_limit():
    assert Ordinal().next_limit() == Ordinal.omega()
    assert Ordinal.nat(7).next_limit() == Ordinal.omega()
    assert Ordinal.omega().next_limit() == Ordinal.omega(1, 2)
    assert Ordinal.omega(1, 2).plus(9).next_limit() == Ordinal.omega(1, 3)


_ORDS = st.builds(
    lambda pairs: Ordinal(tuple(sorted({e: c for e, c in pairs}.items(),
                                       reverse=True))),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)), max_size=3))


@given(_ORDS)
def test_successor_inverts_predecessor(a):
    assert a.successor().predecessor() == a


@given(_ORDS)
def test_limb_plus_mod_recomposes(a):
    assert a.limb().plus(a.mod_omega()) == a


@given(_ORDS, _ORDS)
def test_order_antisymmetric(a, b):
    assert (a < b) == (b > a)
    assert (a < b) + (b < a) + (a == b) == 1


@given(_ORDS, st.integers(0, 10))
def test_plus_strictly_monotone(a, n):
    assert (a.plus(n) > a) == (n > 0)
    assert a.plus(n).limb() == a.limb()


@given(_ORDS, st.integers(0, 10))
def test_derived_results_match_validated_ordinals(a, n):
    """Results built from a valid ordinal skip the CNF check; each is
    still in CNF, so it equals and hashes like the checked Ordinal on
    its terms."""
    derived = [a.limb(), a.plus(n), a.successor(), a.next_limit()]
    if a.is_successor:
        derived.append(a.predecessor())
    for r in derived:
        checked = Ordinal(r.terms)
        assert r == checked and hash(r) == hash(checked)
        assert type(r) is Ordinal and str(r) == str(checked)


def test_constructors_still_check_cnf():
    for terms in (((0, 0),), ((1, 1), (2, 1)), ((-1, 1),)):
        with pytest.raises(BadArgument):
            Ordinal(terms)
    with pytest.raises(BadArgument):
        Ordinal.nat(-1)
    with pytest.raises(BadArgument):
        Ordinal.omega(1, 0)
