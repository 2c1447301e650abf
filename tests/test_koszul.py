import itertools
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from borelcell.borel import BorelIdeal, expand_principal, min_monomial
from borelcell.builders import borel_complex, principal_complex
from borelcell.exact import Field
from borelcell.koszul import (
    SimplicialComplex,
    betti_via_koszul,
    simplicial_homology,
    upper_koszul,
)
from borelcell.lattice import build_lattice
from borelcell.monomials import (
    Monomial,
    lcm,
    minimal_under_divisibility,
    monomials_of_degree,
    parse_monomial,
)
from borelcell.resolution import betti_from_cells, betti_totals, verify_resolution

Q = Field.rationals()
FIELDS = (Q, Field.parse("p:2"))


def m(text, n=3):
    return parse_monomial(text, n)


def K(*faces):
    return SimplicialComplex.from_faces(faces)


class TestSimplicialComplex:
    def test_downward_closure_enforced(self):
        with pytest.raises(ValueError, match="downward closed"):
            K({1, 2})

    def test_void_versus_empty_face(self):
        void = K()
        empty = K(set())
        assert void.is_void and void.dim == -1
        assert not empty.is_void and empty.dim == -1
        assert simplicial_homology(void, Q) == ()
        assert simplicial_homology(empty, Q) == (1,)

    def test_full_triangle(self):
        T = K(set(), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})
        assert T.dim == 2
        assert simplicial_homology(T, Q) == (0, 0, 0, 0)

    def test_hollow_triangle(self):
        H = K(set(), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3})
        assert simplicial_homology(H, Q) == (0, 0, 1)

    def test_two_components(self):
        X = K(set(), {1}, {2})
        assert simplicial_homology(X, Q) == (0, 1)


class TestUpperKoszul:
    def test_at_a_generator(self):
        gens = [m("a", 2), m("b", 2)]
        at_a = upper_koszul(gens, m("a", 2))
        assert at_a.faces == frozenset([frozenset()])

    def test_at_the_lcm(self):
        gens = [m("a", 2), m("b", 2)]
        at_ab = upper_koszul(gens, m("a*b", 2))
        # removing either variable from ab lands in the ideal, removing both does not
        assert at_ab.faces == frozenset([frozenset(), frozenset([1]), frozenset([2])])
        assert simplicial_homology(at_ab, Q) == (0, 1)

    def test_outside_the_ideal(self):
        gens = [m("a^2", 2)]
        assert upper_koszul(gens, m("a*b", 2)).is_void

    def test_support_only(self):
        gens = [m("bc")]
        Kx = upper_koszul(gens, m("b^2*c"))
        assert all(f <= {2, 3} for f in Kx.faces)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            upper_koszul([m("a", 2)], m("a", 3))


class TestBettiViaKoszul:
    def test_variables_give_the_koszul_resolution(self):
        gens = list(expand_principal(m("c")).expanded)
        table = betti_via_koszul(gens)
        assert betti_totals(table) == (3, 3, 1)

    def test_matches_cellular_table_for_bc(self):
        I = expand_principal(m("bc"))
        X = principal_complex(3, m("bc"))
        cellular = betti_from_cells(X, verify_resolution(X, I))
        assert betti_via_koszul(I.expanded) == cellular
        assert betti_totals(cellular) == (5, 6, 2)

    def test_matches_cellular_table_for_a_two_generator_ideal(self):
        I = BorelIdeal.from_borel_gens(3, [m("b^2*c"), m("a*c^2")])
        X = borel_complex(I)
        cellular = betti_from_cells(X, verify_resolution(X, I))
        assert betti_via_koszul(I.expanded) == cellular

    def test_extra_degrees_change_nothing(self):
        gens = list(expand_principal(m("bc")).expanded)
        base = betti_via_koszul(gens)
        padded = betti_via_koszul(
            gens, degrees=[b for (i, b) in base] + [m("a^4*b^4*c^4"), m("a")]
        )
        assert padded == base

    def test_mod_p_agrees(self):
        gens = list(expand_principal(m("b*d^2", 4)).expanded)
        assert betti_via_koszul(gens) == betti_via_koszul(
            gens, fld=Field.parse("p:32003")
        )


def brute_intersection(A, B):
    """Minimal generators of the intersection of two monomial ideals."""
    A, B = list(A), list(B)
    if not A or not B:
        raise ValueError("need generators on both sides")
    return minimal_under_divisibility(lcm(a, b) for a in A for b in B)


class TestBruteIntersection:
    def test_coprime_variables(self):
        out = brute_intersection([m("a", 2)], [m("b", 2)])
        assert out == (m("a*b", 2),)

    def test_matches_min_monomial(self):
        u, v = m("b^5*c"), m("a*b^3*c^2")
        left = expand_principal(u).expanded
        right = expand_principal(v).expanded
        brute = set(brute_intersection(left, right))
        assert brute == set(expand_principal(min_monomial(u, v)).expanded)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            brute_intersection([], [m("a")])


# ---- the subset-enumeration and dense-matrix algorithms, as references


def subset_upper_koszul(gens, b):
    """K^b by testing every squarefree t inside supp(b)."""
    below = [g.exps for g in gens if g.divides(b)]
    support = [i for i in range(1, b.n + 1) if b.exps[i - 1] > 0]
    faces = set()
    for k in range(len(support) + 1):
        for combo in itertools.combinations(support, k):
            q = list(b.exps)
            for i in combo:
                q[i - 1] -= 1
            if any(all(map(le, g, q)) for g in below):
                faces.add(frozenset(combo))
    return frozenset(faces)


def dense_homology(faces, fld):
    """Reduced homology from the rank of every boundary matrix."""
    if not faces:
        return ()
    top = max(len(f) for f in faces)
    by_dim = [sorted(tuple(sorted(f)) for f in faces if len(f) == k) for k in range(top + 1)]
    pos = [{f: i for i, f in enumerate(bucket)} for bucket in by_dim]
    ranks = [0]
    for d in range(1, top + 1):
        mat = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, face in enumerate(by_dim[d]):
            for i in range(len(face)):
                mat[pos[d - 1][face[:i] + face[i + 1 :]]][j] = (-1) ** i
        ranks.append(fld.rank(mat))
    ranks.append(0)
    return tuple(len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1))


def closure(facets):
    return frozenset(
        frozenset(t)
        for f in facets
        for k in range(len(f) + 1)
        for t in itertools.combinations(sorted(f), k)
    )


FULL = closure([{1, 2, 3}])
HOLLOW = FULL - {frozenset({1, 2, 3})}

# downward closures of up to 5 facets on at most 6 vertices; [] is the void
complexes = st.lists(
    st.frozensets(st.integers(1, 6), max_size=6), max_size=5
).map(closure)

# Borel ideals in at most 4 variables, degree at most 3
small_borel = st.integers(2, 4).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.sampled_from(list(monomials_of_degree(n, d))), min_size=1, max_size=3
        ).map(lambda gens: BorelIdeal.from_borel_gens(n, gens))
    )
)


def monomials(n, top):
    """Monomials in n variables with every exponent at most top."""
    return st.lists(st.integers(0, top), min_size=n, max_size=n).map(
        lambda e: Monomial(tuple(e))
    )


# mixed-degree generators and any degree b, in or out of the lattice
gens_and_degree = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(monomials(n, 2), max_size=4), monomials(n, 3))
)
# the same generators with several such degrees
gens_and_degrees = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(monomials(n, 2), max_size=4),
        st.lists(monomials(n, 3), min_size=1, max_size=5),
    )
)
# a Borel ideal's generators with its lattice degrees and up to 3 others
borel_and_padding = small_borel.flatmap(
    lambda I: st.tuples(
        st.just(list(I.expanded)), st.lists(monomials(I.n, 4), max_size=3)
    )
).map(lambda t: (t[0], [*build_lattice(t[0]).sorted_elements, *t[1]]))


def reference_betti(gens, degrees, fld):
    """beta_{i,b} = H_{i-1}(K^b), degree by degree, from the references."""
    table = {}
    for b in degrees:
        for i, h in enumerate(dense_homology(subset_upper_koszul(gens, b), fld)):
            if h:
                table[(i, b)] = h
    return table


class TestAgainstReferences:
    @given(complexes)
    @example(frozenset())
    @example(frozenset([frozenset()]))
    @example(FULL)
    @example(HOLLOW)
    @settings(max_examples=80, deadline=None)
    def test_homology_matches_the_dense_ranks(self, faces):
        X = SimplicialComplex.from_faces(faces)
        assert X.faces == faces
        for fld in FIELDS:
            assert simplicial_homology(X, fld) == dense_homology(faces, fld)

    @given(gens_and_degree)
    @settings(max_examples=80, deadline=None)
    def test_faces_match_subset_enumeration(self, case):
        gens, b = case
        assert upper_koszul(gens, b).faces == subset_upper_koszul(gens, b)

    @given(small_borel)
    @example(expand_principal(m("bc")))
    @settings(max_examples=25, deadline=None)
    def test_every_lattice_degree(self, I):
        gens = list(I.expanded)
        for b in build_lattice(gens).sorted_elements:
            faces = subset_upper_koszul(gens, b)
            X = upper_koszul(gens, b)
            assert X.faces == faces, b
            for fld in FIELDS:
                assert simplicial_homology(X, fld) == dense_homology(faces, fld), b

    @given(st.one_of(gens_and_degrees, borel_and_padding))
    @example(([], [m("a")]))
    @example(([m("a"), m("b")], [m("a"), m("ab"), m("a^2*b"), m("c")]))
    @settings(max_examples=80, deadline=None)
    def test_betti_matches_the_per_degree_references(self, case):
        gens, degrees = case
        for fld in FIELDS:
            assert betti_via_koszul(gens, degrees, fld) == reference_betti(
                gens, degrees, fld
            )

    def test_only_a_full_simplex_skips_the_ranks(self, monkeypatch):
        calls = []
        rank = Field.rank
        monkeypatch.setattr(
            Field, "rank", lambda self, rows: calls.append(rows) or rank(self, rows)
        )
        assert simplicial_homology(SimplicialComplex.from_faces(FULL), Q) == (0,) * 4
        assert simplicial_homology(K(set()), Q) == (1,)
        assert not calls
        assert simplicial_homology(SimplicialComplex.from_faces(HOLLOW), Q) == (0, 0, 1)
        assert len(calls) == 2
        # in the Betti route a full simplex builds no face set either
        built = []
        check = SimplicialComplex.__post_init__
        monkeypatch.setattr(
            SimplicialComplex, "__post_init__", lambda K: built.append(K) or check(K)
        )
        calls.clear()
        # K^a is {empty face}; K^{a^2 b} is the full simplex on {1, 2}, since
        # S_a = {1, 2} holds S_b = {1}
        gens = [m("a"), m("b")]
        assert betti_via_koszul(gens, [m("a"), m("a^2*b")]) == {(0, m("a")): 1}
        assert not calls and not built
        # K^{ab} is two points, S_a = {2} and S_b = {1}: ranked
        assert betti_via_koszul(gens, [m("ab")]) == {(1, m("ab")): 1}
        assert calls and built

    def test_face_masks_are_checked(self):
        with pytest.raises(ValueError, match="bitmask"):
            SimplicialComplex(frozenset([-1]))
        with pytest.raises(ValueError, match="vertices"):
            K({0})
