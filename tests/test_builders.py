import pytest

from borelcell import builders
from borelcell.borel import BorelIdeal, expand_principal, principal_decomposition
from borelcell.builders import (
    borel_complex,
    induced_complex,
    power_complex,
    principal_complex,
)
from borelcell.complexes import _glue, product, simplex, union
from borelcell.monomials import Monomial, VarRange, parse_monomial, unit, variable
from borelcell.serialize import dumps
from references import monomials_of_degree, random_borel_minimal, scale_labels

# test_matches_extraction_exhaustive's monomials: (n, top degree)
EXHAUSTIVE = [(2, 4), (3, 4), (4, 4), (5, 3)]


def m(text, n=3):
    return parse_monomial(text, n)


class TestPowerComplex:
    def test_degree_one_is_simplex(self):
        X = power_complex(3, VarRange(1, 3), 1)
        assert X == simplex([variable(3, i) for i in (1, 2, 3)])
        assert X.f_vector() == (3, 3, 1)

    def test_single_variable_is_point(self):
        X = power_complex(3, VarRange(2, 2), 4)
        assert X.f_vector() == (1,)
        assert X.vertex_labels == (m("b^4"),)

    def test_path(self):
        X = power_complex(2, VarRange(1, 2), 2)
        assert X.f_vector() == (3, 2)
        edges = {frozenset(str(v) for v in f) for f, d in X.faces.items() if d == 1}
        assert edges == {frozenset(["a^2", "a*b"]), frozenset(["a*b", "b^2"])}

    def test_f_vectors(self):
        assert power_complex(3, VarRange(1, 3), 2).f_vector() == (6, 8, 3)
        assert power_complex(4, VarRange(1, 4), 2).f_vector() == (10, 20, 15, 4)
        assert power_complex(4, VarRange(1, 4), 3).f_vector() == (20, 45, 36, 10)

    def test_two_cells_of_p2abc(self):
        X = power_complex(3, VarRange(1, 3), 2)
        tops = {frozenset(str(v) for v in f) for f, d in X.faces.items() if d == 2}
        assert tops == {
            frozenset(["a^2", "a*b", "a*c"]),
            frozenset(["a*b", "b^2", "a*c", "b*c"]),
            frozenset(["a*c", "b*c", "c^2"]),
        }

    @pytest.mark.parametrize(
        "n,lo,hi,d", [(3, 1, 3, 2), (4, 2, 4, 2), (4, 1, 4, 3), (4, 3, 4, 5)]
    )
    def test_vertices_are_all_range_monomials(self, n, lo, hi, d):
        X = power_complex(n, VarRange(lo, hi), d)
        expected = {
            q
            for q in monomials_of_degree(n, d)
            if all(e == 0 for e in q.exps[: lo - 1])
            and all(e == 0 for e in q.exps[hi:])
        }
        assert set(X.vertex_labels) == expected

    def test_pure_of_top_dimension(self):
        # every cell lies in a cell of dimension |range| - 1
        X = power_complex(4, VarRange(1, 4), 2)
        tops = [f for f, d in X.faces.items() if d == X.dim]
        assert X.dim == 3
        for f in X.faces:
            assert any(f <= t for t in tops)

    def test_alternating_sum_is_one(self):
        for n, d in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
            fv = power_complex(n, VarRange(1, n), d).f_vector()
            assert sum((-1) ** i * c for i, c in enumerate(fv)) == 1

    def test_recursion_pieces_are_subcomplexes(self):
        n, d = 3, 3
        X = power_complex(n, VarRange(1, n), d)
        rebuilt = None
        for k in range(1, n + 1):
            piece = product(
                simplex([variable(n, i) for i in range(1, k + 1)]),
                power_complex(n, VarRange(k, n), d - 1),
            )
            for f, dim in piece.faces.items():
                assert X.faces[f] == dim
            rebuilt = piece if rebuilt is None else union(rebuilt, piece)
        assert rebuilt == X

    def test_errors(self):
        with pytest.raises(ValueError):
            power_complex(3, VarRange(1, 4), 2)
        with pytest.raises(ValueError):
            power_complex(3, VarRange(1, 3), 0)


class TestPrincipalComplex:
    def test_pure_power_base_case(self):
        assert principal_complex(3, m("b^3")) == power_complex(3, VarRange(1, 2), 3)

    def test_leading_power_scales(self):
        X = principal_complex(3, m("a^2*b"))
        assert X == scale_labels(power_complex(3, VarRange(1, 2), 1), m("a^2"))
        assert set(X.vertex_labels) == {m("a^3"), m("a^2*b")}

    def test_vertices_are_expansion(self):
        for text, n in [("bc", 3), ("b*d^2", 4), ("b^5*c", 3)]:
            mono = parse_monomial(text, n)
            X = principal_complex(n, mono)
            assert set(X.vertex_labels) == set(expand_principal(mono).expanded)

    def test_bd2_vertex_count(self):
        assert len(principal_complex(4, m("b*d^2", 4)).vertex_labels) == 16

    def test_q_bc_f_vector(self):
        assert principal_complex(3, m("bc")).f_vector() == (5, 6, 2)

    @pytest.mark.parametrize(
        "text,n", [("bc", 3), ("b*d^2", 4), ("bcd", 4), ("b^5*c", 3), ("c^2*d", 4)]
    )
    def test_matches_extraction(self, text, n):
        mono = parse_monomial(text, n)
        X = principal_complex(n, mono)
        Y = induced_complex(expand_principal(mono))
        assert X == Y
        assert X.cells == Y.cells

    @pytest.mark.parametrize("n, top", EXHAUSTIVE)
    def test_matches_extraction_exhaustive(self, n, top):
        # every monomial up to degree top, x1^a * x_j^b (one summand) included
        for d in range(1, top + 1):
            for mono in monomials_of_degree(n, d):
                X = principal_complex(n, mono)
                Y = induced_complex(expand_principal(mono))
                assert X == Y, mono
                assert X.cells == Y.cells, mono

    def test_errors(self):
        with pytest.raises(ValueError):
            principal_complex(3, unit(3))
        with pytest.raises(ValueError):
            principal_complex(3, m("ab", 2))

    def test_vertex_set_is_checked(self, monkeypatch):
        # no input reaches this check, so break the recursion it guards
        monkeypatch.setattr(
            builders,
            "_principal",
            lambda n, exps: power_complex(n, VarRange(1, 3), 2),
        )
        with pytest.raises(ValueError, match="not G"):
            principal_complex(3, m("bc"))


class TestBorelComplex:
    def test_vertex_set_is_checked(self, monkeypatch):
        # no input reaches this check, so break the pieces it glues
        monkeypatch.setattr(
            builders,
            "principal_complex",
            lambda n, g: power_complex(n, VarRange(1, 2), 2),
        )
        with pytest.raises(ValueError, match="not G"):
            borel_complex(expand_principal(m("bc")))

    def test_single_generator_matches_principal(self):
        I = expand_principal(m("bc"))
        assert borel_complex(I) == principal_complex(3, m("bc"))

    def test_union_covers_all_generators(self):
        I = BorelIdeal.from_borel_gens(3, [m("b^2*c"), m("a*c^2")])
        X = borel_complex(I)
        assert set(X.vertex_labels) == set(I.expanded)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_extraction_random(self, seed):
        I = random_borel_minimal(3, 3, 2, seed=seed)
        X = borel_complex(I)
        Y = induced_complex(I)
        assert X == Y
        assert X.cells == Y.cells


class TestInducedComplex:
    def test_full_power_ideal(self):
        I = expand_principal(m("c^2"))
        assert induced_complex(I) == power_complex(3, VarRange(1, 3), 2)

    def test_subcomplex_of_ambient(self):
        I = expand_principal(m("bc"))
        X = induced_complex(I)
        P = power_complex(3, VarRange(1, 3), 2)
        for f, d in X.faces.items():
            assert P.faces[f] == d


def power_pairs(n, lo, hi, d):
    """The (simplex, power complex) pairs that _power(n, lo, hi, d) glues."""
    return [
        (
            simplex([variable(n, i) for i in range(lo, k + 1)]),
            builders._power(n, k, hi, d - 1),
        )
        for k in range(lo, hi + 1)
    ]


def principal_pairs(n, exps):
    """The (principal, power complex) pairs that _principal(n, exps) glues."""
    return [
        (
            builders._principal(n, nk.exps),
            power_complex(n, rng, exps[rng.hi - 1]),
        )
        for nk, rng in principal_decomposition(Monomial(exps))
    ]


class TestGlue:
    """_glue builds the products straight over the union's vertices; union
    of the separately built products is the reference."""

    @staticmethod
    def assert_glues_as_the_union(pairs, built):
        glued = _glue(pairs)
        reference = union(*(product(X, Y) for X, Y in pairs))
        assert glued == reference == built
        assert dumps(glued) == dumps(reference)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_power_complex(self, n):
        for d in range(2, 5):
            for lo in range(1, n + 1):
                for hi in range(lo + 1, n + 1):
                    pairs = power_pairs(n, lo, hi, d)
                    built = builders._power(n, lo, hi, d)
                    self.assert_glues_as_the_union(pairs, built)

    @pytest.mark.parametrize("n, top", EXHAUSTIVE)
    def test_every_principal_complex(self, n, top):
        for d in range(1, top + 1):
            for mono in monomials_of_degree(n, d):
                if sum(map(bool, mono.exps)) > 1:  # not a pure power
                    pairs = principal_pairs(n, mono.exps)
                    built = builders._principal(n, mono.exps)
                    self.assert_glues_as_the_union(pairs, built)

    def test_a_colliding_pair_is_rejected(self):
        X = simplex([m("a"), m("b")])
        with pytest.raises(ValueError, match="collide"):
            _glue([(simplex([m("c")]), simplex([m("a")])), (X, X)])

    def test_a_dimension_conflict_is_rejected(self):
        # the square {ac, ad, bc, bd} of one pair is a tetrahedron in the other
        a_b = simplex([m("a", 4), m("b", 4)])
        c_d = simplex([m("c", 4), m("d", 4)])
        tet = simplex([m(t, 4) for t in ["ac", "ad", "bc", "bd"]])
        with pytest.raises(ValueError, match="different dimensions"):
            _glue([(a_b, c_d), (tet, simplex([unit(4)]))])
