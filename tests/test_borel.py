import random

import pytest
from hypothesis import given, settings, strategies as st

from borelcell import borel
from borelcell.borel import (
    BorelIdeal,
    borel_generators,
    borel_minimalize,
    eliahou_kervaire_betti,
    expand_principal,
    in_principal,
    intersect_borel,
    is_borel_fixed,
    min_monomial,
    parse_ideal_spec,
    principal_decomposition,
)
from borelcell.monomials import Monomial, VarRange, canonical_key, parse_monomial, unit
from references import (
    all_borel_ideals,
    monomials_of_degree,
    move_closure,
    random_borel_minimal,
)


def m(text, n=3):
    return parse_monomial(text, n)


def random_monomial(rng, n, d):
    pool = list(monomials_of_degree(n, d))
    return pool[rng.randrange(len(pool))]


class TestInPrincipal:
    def test_examples(self):
        assert in_principal(m("b^2"), m("bc"))
        assert in_principal(m("ab"), m("bc"))
        assert not in_principal(m("c^2"), m("bc"))
        assert in_principal(m("bc"), m("bc"))

    def test_errors(self):
        with pytest.raises(ValueError):
            in_principal(m("a"), m("bc"))
        with pytest.raises(ValueError):
            in_principal(m("a", 2), m("ab"))


class TestExpandPrincipal:
    def test_bc_expansion(self):
        I = expand_principal(m("bc"))
        assert I.expanded == frozenset(
            [m("a^2"), m("ab"), m("b^2"), m("ac"), m("bc")]
        )
        assert I.borel_gens == (m("bc"),)
        assert I.d == 2

    def test_last_variable_power_gives_everything(self):
        I = expand_principal(m("c^2"))
        assert I.expanded == frozenset(monomials_of_degree(3, 2))

    def test_no_moves(self):
        assert expand_principal(m("a^3")).expanded == frozenset([m("a^3")])

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            expand_principal(unit(3))

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, 4).flatmap(
                    lambda d: st.sampled_from(list(monomials_of_degree(n, d)))
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_move_closure(self, pair):
        _, mono = pair
        assert expand_principal(mono).expanded == move_closure(mono)


def filtered_expansion(g):
    """The filter the enumeration replaced: every degree-d monomial, tested."""
    return frozenset(c for c in monomials_of_degree(g.n, g.degree) if in_principal(c, g))


def closed_under_every_move(pool):
    """Reference closure test: every move x_t -> x_s, s < t, of every element."""
    return all(
        g.borel_move(t, s) in pool
        for g in pool
        for t in range(2, g.n + 1)
        if g.exps[t - 1]
        for s in range(1, t)
    )


class TestExponentTuplePaths:
    """The tuple-based expansion, closure test and generator search against
    the paths they replaced."""

    def test_expansion_matches_the_filter(self):
        for n in range(1, 6):
            for d in range(6):
                for g in monomials_of_degree(n, d):
                    assert borel._expand_principal_set(g) == filtered_expansion(g), g

    @pytest.mark.parametrize("n, d, count", [(3, 3, 15), (4, 3, 65), (3, 5, 63)])
    def test_every_borel_ideal(self, n, d, count):
        ideals = all_borel_ideals(n, d)
        assert len(ideals) == count
        for S in ideals:
            assert is_borel_fixed(S) and closed_under_every_move(S)
            I = BorelIdeal.from_expanded(n, S)
            assert I.expanded == S
            assert list(I.borel_gens) == borel_minimalize(S)
            for g in S:
                rest = S - {g}
                if not rest:
                    with pytest.raises(ValueError):
                        is_borel_fixed(rest)
                    continue
                # dropping a Borel generator leaves a closed set; dropping
                # anything a move reaches must be rejected
                closed = g in I.borel_gens
                assert is_borel_fixed(rest) == closed_under_every_move(rest) == closed
                if not closed:
                    with pytest.raises(ValueError, match="not closed"):
                        BorelIdeal.from_expanded(n, rest)


class TestIsBorelFixed:
    def test_closed_set(self):
        assert is_borel_fixed(expand_principal(m("bc")).expanded)

    def test_open_set(self):
        assert not is_borel_fixed({m("bc")})

    def test_errors(self):
        with pytest.raises(ValueError):
            is_borel_fixed(set())
        with pytest.raises(ValueError):
            is_borel_fixed({m("a"), m("bc")})


class TestBorelMinimalize:
    def test_dominated_generator_dropped(self):
        assert borel_minimalize([m("a*b^4*c"), m("a^2*b^3*c")]) == [m("a*b^4*c")]

    def test_incomparable_kept_rlex_descending(self):
        out = borel_minimalize([m("a*c^2"), m("b^3")])
        assert out == [m("b^3"), m("a*c^2")]

    def test_errors(self):
        with pytest.raises(ValueError):
            borel_minimalize([])
        with pytest.raises(ValueError):
            borel_minimalize([m("a"), m("bc")])


class TestBorelIdeal:
    def test_from_borel_gens_minimalizes(self):
        I = BorelIdeal.from_borel_gens(3, [m("a*b^4*c"), m("a^2*b^3*c")])
        assert I.borel_gens == (m("a*b^4*c"),)

    def test_from_expanded_checks_closure(self):
        gens = expand_principal(m("bc")).expanded
        I = BorelIdeal.from_expanded(3, gens)
        assert I.expanded == gens
        with pytest.raises(ValueError):
            BorelIdeal.from_expanded(3, {m("bc"), m("b^2")})

    def test_from_expanded_checks_the_expansion(self, monkeypatch):
        # no input reaches this check, so break the expansion it relies on
        gens = expand_principal(m("bc")).expanded
        monkeypatch.setattr(borel, "_expand_principal_set", lambda g: frozenset([g]))
        with pytest.raises(ValueError, match="does not reproduce"):
            BorelIdeal.from_expanded(3, gens)

    def test_contains_by_divisibility(self):
        I = expand_principal(m("bc"))
        assert m("a*b^2*c") in I
        assert m("c^3") not in I
        assert unit(3) not in I

    def test_str(self):
        assert str(expand_principal(m("bc"))) == "<b*c>"

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            BorelIdeal.from_borel_gens(3, [m("a"), m("bc")])


class TestMinMonomial:
    def test_worked_pairs(self):
        assert min_monomial(m("b^5*c"), m("a*b^3*c^2")) == m("a*b^4*c")
        assert min_monomial(m("b^5*c"), m("a^2*c^4")) == m("a^2*b^3*c")

    def test_symmetric_and_idempotent(self):
        a, b = m("b^5*c"), m("a*b^3*c^2")
        assert min_monomial(a, b) == min_monomial(b, a)
        assert min_monomial(a, a) == a

    def test_errors(self):
        with pytest.raises(ValueError):
            min_monomial(m("a"), m("bc"))
        with pytest.raises(ValueError):
            min_monomial(m("ab", 2), m("ab"))

    def test_result_is_checked(self, monkeypatch):
        # suffix sums never increase, so only a broken producer reaches this
        monkeypatch.setattr(borel, "suffix_sums", lambda mono: (1, 2, 0))
        with pytest.raises(ValueError, match="not a monomial"):
            min_monomial(m("ab"), m("bc"))

    def test_expansion_is_the_intersection(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 4)
            d = rng.randint(1, 4)
            a, b = (random_monomial(rng, n, d) for _ in range(2))
            inter = expand_principal(a).expanded & expand_principal(b).expanded
            assert expand_principal(min_monomial(a, b)).expanded == inter


class TestIntersectBorel:
    def test_four_variable_intersection(self):
        J = BorelIdeal.from_borel_gens(
            4, [m("a^2*b^4*c*d^2", 4), m("a^3*b*c^2*d^3", 4)]
        )
        R = intersect_borel(m("a*b^4*c^3*d", 4), J)
        assert set(R.borel_gens) == {m("a^3*b^2*c^3*d", 4), m("a^2*b^4*c^2*d", 4)}
        assert len(R.borel_gens) == 2

    def test_expansion_matches_set_intersection(self):
        J = BorelIdeal.from_borel_gens(3, [m("b^2*c"), m("a*c^2")])
        mono = m("b^3")
        R = intersect_borel(mono, J)
        assert R.expanded == expand_principal(mono).expanded & J.expanded

    def test_errors(self):
        J = expand_principal(m("bc"))
        with pytest.raises(ValueError):
            intersect_borel(m("b^3"), J)


# every monomial of 2..5 variables up to degree 4 (degree 3 for 5
# variables): 172 monomials, 48 of them x1^a * x_j^b with a, b > 0
SMALL_MONOMIALS = [
    g
    for n, top in [(2, 4), (3, 4), (4, 4), (5, 3)]
    for d in range(1, top + 1)
    for g in monomials_of_degree(n, d)
]


def summand_union(mono):
    """Union of the summands N_k * (x_k..x_top)^{d_s} as monomial sets."""
    n, total = mono.n, set()
    for nk, rng in principal_decomposition(mono):
        ds = mono.exps[rng.hi - 1]
        power = {
            p
            for p in monomials_of_degree(n, ds)
            if not any(p.exps[: rng.lo - 1]) and not any(p.exps[rng.hi :])
        }
        total |= multiply_sets(expand_principal(nk).expanded, power)
    return total


class TestPrincipalDecomposition:
    def test_bd2(self):
        assert principal_decomposition(m("b*d^2", 4)) == [
            (m("a", 4), VarRange(1, 4)),
            (m("b", 4), VarRange(2, 4)),
        ]

    def test_bcd(self):
        assert principal_decomposition(m("bcd", 4)) == [
            (m("a^2", 4), VarRange(1, 4)),
            (m("b^2", 4), VarRange(2, 4)),
            (m("bc", 4), VarRange(3, 4)),
        ]

    def test_leading_x1_power_is_one_summand(self):
        assert principal_decomposition(m("a^2*b^2")) == [(m("a^2"), VarRange(1, 2))]
        assert principal_decomposition(m("a*c^3", 4)) == [(m("a", 4), VarRange(1, 3))]

    def test_summands_cover_the_ideal(self):
        assert len(SMALL_MONOMIALS) == 172
        leading = 0
        for mono in SMALL_MONOMIALS:
            support = [i for i, e in enumerate(mono.exps) if e]
            if len(support) < 2:
                continue
            leading += support[-2] == 0
            assert summand_union(mono) == set(expand_principal(mono).expanded), mono
        assert leading == 48

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            principal_decomposition(m("a^3"))
        with pytest.raises(ValueError):
            principal_decomposition(m("c^2"))
        with pytest.raises(ValueError):
            principal_decomposition(unit(3))


class TestEliahouKervaire:
    def test_bc(self):
        assert eliahou_kervaire_betti(expand_principal(m("bc"))) == (5, 6, 2)

    def test_powers(self):
        assert eliahou_kervaire_betti(expand_principal(m("c^2"))) == (6, 8, 3)
        assert eliahou_kervaire_betti(expand_principal(m("d^2", 4))) == (10, 20, 15, 4)
        assert eliahou_kervaire_betti(expand_principal(m("d^3", 4))) == (20, 45, 36, 10)
        assert eliahou_kervaire_betti(expand_principal(m("d^4", 4))) == (35, 84, 70, 20)

    def test_single_variable(self):
        assert eliahou_kervaire_betti(expand_principal(m("a^3"))) == (1,)


class TestRandomBorel:
    def test_seed_determinism(self):
        a = random_borel_minimal(3, 3, 2, seed=5)
        b = random_borel_minimal(3, 3, 2, seed=5)
        assert a == b

    def test_is_borel_fixed(self):
        for seed in range(6):
            I = random_borel_minimal(4, 3, 3, seed=seed)
            assert is_borel_fixed(I.expanded)

    def test_errors(self):
        with pytest.raises(ValueError):
            random_borel_minimal(3, 2, 0, seed=1)


class TestBorelGenerators:
    def test_section_four_ideal(self):
        gens = [m(t, 4) for t in ["ab", "ac", "ad^2", "b^2*c*d^2"]]
        G = borel_generators(4, gens)
        expected = {
            "a^2", "ab", "ac", "ad^2", "b^5", "b^4c", "b^3c^2", "b^2c^3",
            "b^4d", "b^3cd", "b^2c^2d", "b^3d^2", "b^2cd^2",
        }
        assert set(G) == {m(t, 4) for t in expected}
        assert len(G) == 13

    def test_equal_degree_matches_expansion(self):
        G = borel_generators(3, [m("bc")])
        assert set(G) == set(expand_principal(m("bc")).expanded)

    def test_canonical_order(self):
        G = borel_generators(4, [m("ab", 4), m("ad^2", 4)])
        assert list(G) == sorted(G, key=canonical_key)

    def test_errors(self):
        with pytest.raises(ValueError):
            borel_generators(3, [])
        with pytest.raises(ValueError):
            borel_generators(3, [unit(3)])


def multiply_sets(A, B):
    """All pairwise products of two generator sets, which must be distinct.

    The polytopal product construction is only valid when distinct pairs
    give distinct products.
    """
    A, B = list(A), list(B)
    out = frozenset(a * b for a in A for b in B)
    if len(out) != len(A) * len(B):
        raise ValueError("generator-set product has colliding products")
    return out


class TestMultiplySets:
    def test_distinct_products(self):
        out = multiply_sets([m("a"), m("b")], [m("c")])
        assert out == frozenset([m("ac"), m("bc")])

    def test_collision_rejected(self):
        with pytest.raises(ValueError):
            multiply_sets([m("a"), m("b")], [m("a"), m("b")])


class TestParseIdealSpec:
    def test_borel_kind(self):
        assert parse_ideal_spec("vars: 3; borel: bc") == (3, "borel", (m("bc"),))

    def test_mono_kind_and_newlines(self):
        n, kind, gens = parse_ideal_spec("vars: 2\nmono: a^2, ab, b^2")
        assert (n, kind) == (2, "mono")
        assert set(gens) == {m("a^2", 2), m("ab", 2), m("b^2", 2)}

    def test_default_vars(self):
        assert parse_ideal_spec("borel: bc", default_n=3)[0] == 3

    def test_explicit_vars_wins(self):
        assert parse_ideal_spec("vars: 4; borel: bc", default_n=3)[0] == 4

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_ideal_spec("borel: bc")  # no ambient anywhere
        with pytest.raises(ValueError):
            parse_ideal_spec("vars: 3")  # no generator list
        with pytest.raises(ValueError):
            parse_ideal_spec("vars: 3; borel: a; mono: b")
        with pytest.raises(ValueError):
            parse_ideal_spec("vars: 3; taylor: a")
        with pytest.raises(ValueError):
            parse_ideal_spec("vars: 3; borel: ")
