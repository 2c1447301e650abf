"""Contracts of the package's small immutable types.

Equality, hashing, repr, immutability and validation of every value type,
stated independently of how the classes are written: the hash of a
`Monomial` fixes set iteration order and hence output order, and the
reprs reach error messages.
"""
import copy
import operator
import pickle

import pytest

from borelcell.borel import BorelIdeal, expand_principal
from borelcell.builders import power_complex
from borelcell.complexes import Cell, simplex
from borelcell.exact import Field
from borelcell.koszul import SimplicialComplex
from borelcell.lattice import (
    LabelChainReport,
    LcmLattice,
    RankedReport,
    build_lattice,
    is_ranked,
    natural_label_check,
)
from borelcell.monomials import Monomial, VarRange, parse_monomial, unit
from borelcell.resolution import (
    ChainComplex,
    ResolutionReport,
    chain_complex,
    verify_resolution,
)


def m(text, n=3):
    return parse_monomial(text, n)


def one_of_each():
    """An instance of every value type, built the way the package builds it."""
    I = expand_principal(m("bc"))
    X = power_complex(2, VarRange(1, 2), 2)
    L = build_lattice(I)
    return [
        m("a*c^2"),
        VarRange(1, 3),
        I,
        X.cells[-1],
        Field(),
        Field(7),
        SimplicialComplex(frozenset({0, 1})),
        L,
        is_ranked(L),
        natural_label_check(L, unit(3), m("a*b*c")),
        chain_complex(X),
        # a complex of its own: power_complex caches, and other tests may
        # fill the cached complex's unpicklable mapping views
        verify_resolution(simplex([m("a", 2), m("b", 2)]), expand_principal(m("b", 2))),
    ]


FIELDS = {
    Monomial: ("exps",),
    VarRange: ("lo", "hi"),
    BorelIdeal: ("n", "d", "borel_gens", "expanded"),
    Cell: ("id", "dim", "vertices", "label", "facets"),
    Field: ("p",),
    SimplicialComplex: ("masks",),
    LcmLattice: ("n", "atoms", "exps", "below"),
    RankedReport: ("ranked", "criterion", "witness_cover", "witness_interval"),
    LabelChainReport: ("lo", "hi", "chains", "labels", "increasing", "decreasing"),
    ChainComplex: ("dims", "vertices", "labels", "columns"),
    ResolutionReport: (
        "ok", "field", "boundary_squared_zero", "degrees", "failures", "subject"
    ),
}


def test_every_type_is_covered():
    assert {type(v) for v in one_of_each()} == set(FIELDS)


@pytest.mark.parametrize("value", one_of_each(), ids=lambda v: type(v).__name__)
def test_attributes_cannot_be_set_or_deleted(value):
    for name in FIELDS[type(value)]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    # a frozen slotted dataclass raised TypeError here, not AttributeError
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1


@pytest.mark.parametrize("value", one_of_each(), ids=lambda v: type(v).__name__)
def test_not_equal_to_its_field_tuple(value):
    fields = tuple(getattr(value, name) for name in FIELDS[type(value)])
    assert value == value
    assert value != fields
    assert value != ()


@pytest.mark.parametrize("value", one_of_each(), ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trip(value):
    twins = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for twin in twins:
        assert type(twin) is type(value) and twin == value
        for name in FIELDS[type(value)]:
            assert getattr(twin, name) == getattr(value, name)


class TestMonomial:
    @pytest.mark.parametrize("e", [(0,), (1, 0, 2), (3, 3), (0, 0, 0, 5)])
    def test_hash_is_the_hash_of_the_one_field_tuple(self, e):
        assert hash(Monomial(e)) == hash((e,))

    def test_set_order_follows_the_hash(self):
        es = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
        assert [g.exps for g in set(map(Monomial, es))] == [
            t for (t,) in {(e,) for e in es}
        ]

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_unordered(self, op):
        with pytest.raises(TypeError):
            op(m("a"), m("b"))
        with pytest.raises(TypeError):
            sorted([m("a"), m("b")])

    def test_not_a_tuple(self):
        assert not isinstance(m("a"), tuple)

    def test_equality(self):
        assert Monomial([1, 2]) == Monomial((1, 2))
        assert Monomial((1, 2)) != Monomial((2, 1))
        assert Monomial((1, 2)) != Monomial((1, 2, 0))
        assert Monomial((1, 2)).__eq__((1, 2)) is NotImplemented

    def test_list_input_becomes_a_tuple(self):
        assert type(Monomial([1, 2]).exps) is tuple

    @pytest.mark.parametrize("bad", [(), (-1,), (1.0,), ("1",), (1, None)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            Monomial(bad)

    def test_repr(self):
        assert repr(Monomial((1, 0))) == "Monomial((1, 0))"


class TestVarRange:
    def test_equality_and_hash(self):
        assert VarRange(1, 3) == VarRange(1, 3)
        assert VarRange(1, 3) != VarRange(1, 4)
        assert hash(VarRange(2, 3)) == hash((2, 3))
        assert len({VarRange(1, 3), VarRange(1, 3), VarRange(2, 3)}) == 2

    def test_keywords_and_repr(self):
        assert VarRange(lo=2, hi=5) == VarRange(2, 5)
        assert repr(VarRange(1, 4)) == "VarRange(lo=1, hi=4)"


class TestField:
    def test_equality_and_hash(self):
        assert Field() == Field(None) == Field(p=None)
        assert Field(5) == Field(5)
        assert Field(5) != Field(7)
        assert Field() != Field(2)
        assert hash(Field()) == hash((None,))
        assert hash(Field(5)) == hash((5,))

    def test_repr_and_validation(self):
        assert repr(Field()) == "Field(p=None)"
        assert repr(Field(3)) == "Field(p=3)"
        with pytest.raises(ValueError):
            Field(4)

    @pytest.mark.parametrize("p", [3.0, "3", True], ids=repr)
    def test_p_must_be_an_int(self, p):
        # a float or a string is no prime, even when it reads as one, and a
        # bool, an int subclass, is neither; each a ValueError, not TypeError
        with pytest.raises(ValueError, match="is not prime"):
            Field(p)


class TestBorelIdeal:
    def test_equality_and_hash(self):
        I = expand_principal(m("bc"))
        J = BorelIdeal.from_expanded(3, I.expanded)
        assert I == J and I is not J
        assert hash(I) == hash(J) == hash((I.n, I.d, I.borel_gens, I.expanded))
        assert I != expand_principal(m("b^2"))
        assert BorelIdeal(3, 2, I.borel_gens, I.expanded) == I

    def test_keywords_and_repr(self):
        I = expand_principal(m("a", 2))
        assert I == BorelIdeal(n=2, d=1, borel_gens=I.borel_gens, expanded=I.expanded)
        assert repr(I) == (
            "BorelIdeal(n=2, d=1, borel_gens=(Monomial((1, 0)),), "
            "expanded=frozenset({Monomial((1, 0))}))"
        )


class TestCell:
    def test_equality_and_hash(self):
        c = Cell(id=2, dim=1, vertices=(0, 1), label=m("a"), facets=((0, 1), (1, -1)))
        d = Cell(2, 1, (0, 1), m("a"), ((0, 1), (1, -1)))
        assert c == d
        assert hash(c) == hash(d) == hash((2, 1, (0, 1), m("a"), ((0, 1), (1, -1))))
        assert c != Cell(2, 1, (0, 1), m("a"), ((0, -1), (1, 1)))

    def test_repr(self):
        assert repr(Cell(0, 0, (0,), m("a", 2), ())) == (
            "Cell(id=0, dim=0, vertices=(0,), label=Monomial((1, 0)), facets=())"
        )


class TestSimplicialComplex:
    def test_equality_hash_and_validation(self):
        K = SimplicialComplex(frozenset({0, 1, 2, 3}))
        assert K == SimplicialComplex(frozenset({3, 2, 1, 0}))
        assert hash(K) == hash((K.masks,))
        assert K != SimplicialComplex(frozenset({0, 1}))
        with pytest.raises(ValueError):
            SimplicialComplex(frozenset({3}))


class TestReports:
    def test_ranked_report(self):
        r = RankedReport(True, "degree")
        assert r == RankedReport(ranked=True, criterion="degree")
        assert r.witness_cover is None and r.witness_interval is None
        assert bool(r) and not RankedReport(False, "chains")
        assert r != RankedReport(True, "chains")
        assert repr(r) == (
            "RankedReport(ranked=True, criterion='degree', "
            "witness_cover=None, witness_interval=None)"
        )

    def test_label_chain_report_defaults(self):
        r = LabelChainReport(unit(2), m("a", 2), ((unit(2), m("a", 2)),), ((1,),))
        assert r.increasing == () and r.decreasing == ()
        assert r == LabelChainReport(r.lo, r.hi, r.chains, r.labels, (), ())
        assert r != LabelChainReport(r.lo, r.hi, r.chains, r.labels, (0,), ())

    def test_chain_complex(self):
        fields = (
            (0, 0, 1),
            ((0,), (1,), (0, 1)),
            ((1, 0), (0, 1), (1, 1)),
            ((), (), ((0, 1), (1, -1))),
        )
        C = ChainComplex(dims=fields[0], vertices=fields[1], labels=fields[2],
                         columns=fields[3])
        assert C == ChainComplex(*fields)
        assert hash(C) == hash(fields)
        assert C != ChainComplex(*fields[:3], ((), (), ((0, -1), (1, 1))))

    def test_resolution_report_equality_ignores_only_the_subject(self):
        X = power_complex(2, VarRange(1, 2), 2)
        report = verify_resolution(X, expand_principal(m("b^2", 2)), Field())
        assert report.subject is X and report.degrees and report.failures == {}
        fields = (True, "q", True, report.degrees, {})
        bare = ResolutionReport(*fields)
        assert bare.subject is None
        assert report == bare
        # a change to any one field but the subject is seen: the degrees
        # alone, or the failures alone, included
        witness = {"reduced_homology": [0, 1], "first_nonzero": 0}
        assert report != ResolutionReport(*fields[:3], report.degrees[:-1], {})
        assert report != ResolutionReport(*fields[:4], {report.degrees[-1]: witness})
        assert report != ResolutionReport(False, *fields[1:])
        assert report != ResolutionReport(True, "p:2", *fields[2:])
        assert report != ResolutionReport(*fields[:2], False, *fields[3:])
        one = ResolutionReport(*fields[:3], ((1, 1),), {})
        assert one != ResolutionReport(*fields[:3], ((1, 2),), {})
        assert one == ResolutionReport(*fields[:3], ((1, 1),), {}, subject=X)
        # failures is a dict, so no report is hashable, passing or not
        for r in (report, one):
            with pytest.raises(TypeError):
                hash(r)
        assert repr(ResolutionReport(True, "q", True, ((1, 1),), {}, X)) == (
            "ResolutionReport(ok=True, field='q', boundary_squared_zero=True, "
            "degrees=((1, 1),), failures={})"
        )

    def test_lattice_equality(self):
        L = build_lattice(expand_principal(m("bc")))
        assert L == build_lattice(expand_principal(m("bc")))
        assert L != build_lattice(expand_principal(m("b^2")))
