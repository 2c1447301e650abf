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
    canonical_key,
    minimal_under_divisibility,
    parse_monomial,
)
from borelcell.resolution import betti_from_cells, betti_totals, verify_resolution
from references import all_borel_ideals, lcm, monomials_of_degree

Q = Field()
FIELDS = (Q, Field.parse("p:2"))


def m(text, n=3):
    return parse_monomial(text, n)


def from_faces(faces):
    """The complex on the given vertex sets, vertices numbered from 1."""
    return SimplicialComplex(frozenset(sum(1 << (v - 1) for v in f) for f in faces))


def faces_of(X):
    """The vertex sets of X's faces, vertices numbered from 1."""
    return frozenset(
        frozenset(i + 1 for i in range(f.bit_length()) if f >> i & 1) for f in X.masks
    )


def K(*faces):
    return from_faces(faces)


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
        assert faces_of(at_a) == frozenset([frozenset()])

    def test_at_the_lcm(self):
        gens = [m("a", 2), m("b", 2)]
        at_ab = upper_koszul(gens, m("a*b", 2))
        # removing either variable from ab lands in the ideal, removing both does not
        assert faces_of(at_ab) == frozenset([frozenset(), frozenset([1]), frozenset([2])])
        assert simplicial_homology(at_ab, Q) == (0, 1)

    def test_outside_the_ideal(self):
        gens = [m("a^2", 2)]
        assert upper_koszul(gens, m("a*b", 2)).is_void

    def test_support_only(self):
        gens = [m("bc")]
        Kx = upper_koszul(gens, m("b^2*c"))
        assert all(f <= {2, 3} for f in faces_of(Kx))

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

    def test_one_monomial_per_table_degree(self, monkeypatch):
        # P(5,4) has 3,069 lattice degrees and 496 in the table; the rest
        # are decided on exponent tuples and build nothing
        gens = list(expand_principal(m("x5^4", 5)).expanded)
        built = []
        check = Monomial.__init__
        monkeypatch.setattr(
            Monomial, "__init__", lambda b, exps: built.append(exps) or check(b, exps)
        )
        table = betti_via_koszul(gens)
        monkeypatch.undo()
        degrees = {b for _, b in table}
        assert len(degrees) == 496
        assert len(built) <= len(degrees)

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
).map(lambda t: (t[0], [*map(Monomial, build_lattice(t[0]).exps), *t[1]]))


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
        X = from_faces(faces)
        assert faces_of(X) == faces
        for fld in FIELDS:
            assert simplicial_homology(X, fld) == dense_homology(faces, fld)

    @given(gens_and_degree)
    @settings(max_examples=80, deadline=None)
    def test_faces_match_subset_enumeration(self, case):
        gens, b = case
        assert faces_of(upper_koszul(gens, b)) == subset_upper_koszul(gens, b)

    @given(small_borel)
    @example(expand_principal(m("bc")))
    @settings(max_examples=25, deadline=None)
    def test_every_lattice_degree(self, I):
        gens = list(I.expanded)
        lattice = list(map(Monomial, build_lattice(gens).exps))
        walked = [betti_via_koszul(gens, fld) for fld in FIELDS]
        for table in walked:
            assert {b for _, b in table} <= set(lattice)
        for b in lattice:
            faces = subset_upper_koszul(gens, b)
            X = upper_koszul(gens, b)
            assert faces_of(X) == faces, b
            for fld, table in zip(FIELDS, walked):
                dims = simplicial_homology(X, fld)
                assert dims == dense_homology(faces, fld), b
                # the Betti route's cuts, at b of the walk, against the
                # ranked homology
                at_b = {key: h for key, h in table.items() if key[1] == b}
                assert at_b == {(i, b): h for i, h in enumerate(dims) if h}, b

    @given(st.one_of(gens_and_degrees, borel_and_padding))
    @example(([], [m("a")]))
    @example(([m("a"), m("b")], [m("a"), m("ab"), m("a^2*b"), m("c")]))
    @settings(max_examples=80, deadline=None)
    def test_betti_matches_the_per_degree_references(self, case):
        gens, degrees = case
        if not gens or any(g.is_unit for g in gens):
            # no lcm lattice to walk: no generator, or the whole ring
            with pytest.raises(ValueError, match="generator"):
                betti_via_koszul(gens)
            return
        # the walk against the references on every lattice degree; the
        # drawn degrees, in or out of the lattice, add nothing
        lattice = list(map(Monomial, build_lattice(gens).exps))
        for fld in FIELDS:
            assert betti_via_koszul(gens, fld) == reference_betti(
                gens, lattice + degrees, fld
            )

    def test_only_a_full_simplex_skips_the_ranks(self, monkeypatch):
        calls = []
        rank = Field.rank
        monkeypatch.setattr(
            Field, "rank", lambda self, rows: calls.append(rows) or rank(self, rows)
        )
        assert simplicial_homology(from_faces(FULL), Q) == (0,) * 4
        assert simplicial_homology(K(set()), Q) == (1,)
        assert not calls
        assert simplicial_homology(from_faces(HOLLOW), Q) == (0, 0, 1)
        assert len(calls) == 2
        # in the Betti route a full simplex builds no face set either
        built = []
        check = SimplicialComplex.__init__
        monkeypatch.setattr(
            SimplicialComplex,
            "__init__",
            lambda K, masks: built.append(masks) or check(K, masks),
        )
        calls.clear()
        # the walk of a and b: K^a and K^b are {empty face}; K^{ab} is two
        # points, S_a = {2} and S_b = {1}: the boundary of the simplex on
        # {1, 2}, a 0-sphere, needs no rank either
        table = betti_via_koszul([m("a"), m("b")])
        assert table == {(0, m("a")): 1, (0, m("b")): 1, (1, m("ab")): 1}
        assert not calls and not built
        # the walk of a^2, ab, b^2: K^{a^2 b} and K^{a b^2} are 0-spheres,
        # and K^{a^2 b^2} is the full simplex on {1, 2}, since
        # S_{ab} = {1, 2} holds S_{a^2} = {2} and S_{b^2} = {1}
        table = betti_via_koszul([m("a^2"), m("a*b"), m("b^2")])
        assert m("a^2*b^2") not in {b for _, b in table}
        assert betti_totals(table) == (3, 2)
        assert not calls and not built
        # K^{a^2 b^2 c^2} of these three is three points, S_g = {1}, {2},
        # {3}: neither a full simplex nor a simplex boundary, so ranked; it
        # is the walk's one degree above the atoms
        gens = [m("a*b^2*c^2"), m("a^2*b*c^2"), m("a^2*b^2*c")]
        table = betti_via_koszul(gens)
        assert table == {**{(0, g): 1 for g in gens}, (1, m("a^2*b^2*c^2")): 2}
        assert calls and built

    def test_a_simplex_boundary_short_of_one_facet_is_ranked(self, monkeypatch):
        calls = []
        rank = Field.rank
        monkeypatch.setattr(
            Field, "rank", lambda self, rows: calls.append(rows) or rank(self, rows)
        )
        # the walk of bc, ab, c^2 ranks one degree, a*b*c^2: S_{bc} = {1, 3}
        # and S_{c^2} = {1, 2} (S_{ab} = {3} lies in the first) are two
        # facets of the simplex on {1, 2, 3}, not {2, 3}; a path, so acyclic.
        # K^{abc} and K^{b c^2} are 0-spheres.
        table = betti_via_koszul([m("b*c"), m("a*b"), m("c^2")])
        assert calls
        assert m("a*b*c^2") not in {b for _, b in table}
        assert betti_totals(table) == (3, 2)
        # with S_a = {2, 3} as well, K^{abc} of a, b, c is the hollow
        # triangle, and every other degree of their walk a simplex boundary
        # or {empty face}
        calls.clear()
        table = betti_via_koszul([m("a"), m("b"), m("c")])
        assert table[(2, m("abc"))] == 1
        assert betti_totals(table) == (3, 3, 1)
        assert not calls

    def test_face_masks_are_checked(self):
        with pytest.raises(ValueError, match="bitmask"):
            SimplicialComplex(frozenset([-1]))


class TestEveryBorelIdeal:
    """All 181 Borel ideals of degree 3 in 4 variables and of degrees 2..5
    in 3 variables: 10,127 lattice degrees above the bottom."""

    @pytest.mark.parametrize(
        "n, d, count", [(4, 3, 65), (3, 2, 7), (3, 3, 15), (3, 4, 31), (3, 5, 63)]
    )
    def test_the_walk_decides_as_each_degree_alone(self, n, d, count):
        ideals = all_borel_ideals(n, d)
        assert len(ideals) == count
        for expanded in ideals:
            gens = sorted(expanded, key=canonical_key)
            degrees = build_lattice(gens).exps[1:]
            walked = betti_via_koszul(gens)
            # in canonical order, and against K^b built and ranked per
            # degree, by the oracle's union of simplices and by subset
            # enumeration
            assert list(walked) == sorted(
                walked, key=lambda key: (canonical_key(key[1]), key[0])
            )
            assert walked == {
                (i, b): h
                for b in map(Monomial, degrees)
                for i, h in enumerate(simplicial_homology(upper_koszul(gens, b), Q))
                if h
            }
            assert walked == reference_betti(gens, map(Monomial, degrees), Q)

