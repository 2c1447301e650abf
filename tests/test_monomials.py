import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from borelcell.monomials import (
    Monomial,
    VarRange,
    canonical_key,
    lcm,
    lcm_many,
    minimal_under_divisibility,
    monomials_of_degree,
    parse_monomial,
    rlex_cmp,
    rlex_key,
    suffix_sums,
    unit,
    variable,
)


def m(text, n=3):
    return parse_monomial(text, n)


small_monomials = st.builds(
    Monomial,
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5).map(tuple),
)


class TestMonomialBasics:
    def test_degree_and_unit(self):
        assert m("a^2*b").degree == 3
        assert unit(3).is_unit
        assert not m("a").is_unit
        assert m("bc").n == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(())
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_mul(self):
        assert m("ab") * m("bc") == m("a*b^2*c")
        with pytest.raises(ValueError):
            m("a", 2) * m("a", 3)

    def test_divides(self):
        assert m("ab").divides(m("ab^2c"))
        assert not m("a^2").divides(m("ab"))
        assert unit(3).divides(m("bc"))
        with pytest.raises(ValueError):
            m("a", 2).divides(m("a", 3))

    def test_quotient(self):
        assert m("ab^2c").quotient(m("ab")) == m("bc")
        with pytest.raises(ValueError):
            m("ab").quotient(m("c"))

    def test_max_index(self):
        assert m("ad^2", 4).max_index() == 4
        assert m("a^2").max_index() == 1
        with pytest.raises(ValueError):
            unit(3).max_index()

    def test_borel_move(self):
        assert m("bc").borel_move(3, 1) == m("ab")
        assert m("bc").borel_move(2, 1) == m("ac")
        with pytest.raises(ValueError):
            m("bc").borel_move(1, 1)
        with pytest.raises(ValueError):
            m("a^2").borel_move(3, 1)  # x3 does not divide a^2

    def test_text_forms(self):
        assert str(unit(3)) == "1"
        assert str(m("a*b^2")) == "a*b^2"
        assert m("a*b^2").canonical() == "x1*x2^2"
        # beyond four variables the letter sugar is dropped
        assert str(parse_monomial("x1*x5", 5)) == "x1*x5"


class TestParse:
    def test_unit(self):
        assert parse_monomial("1", 4) == unit(4)

    def test_letters_and_juxtaposition(self):
        assert parse_monomial("bc", 3) == Monomial((0, 1, 1))
        assert parse_monomial("ad^2", 4) == Monomial((1, 0, 0, 2))
        assert parse_monomial("b^2*c*d^2", 4) == Monomial((0, 2, 1, 2))

    def test_x_form_and_whitespace(self):
        assert parse_monomial(" x1 * x3^2 ", 3) == Monomial((1, 0, 2))
        assert parse_monomial("x12^3", 12).exps[11] == 3

    def test_repeated_factors_accumulate(self):
        assert parse_monomial("a*a", 2) == Monomial((2, 0))

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_monomial("", 3)
        with pytest.raises(ValueError):
            parse_monomial("a+b", 3)
        with pytest.raises(ValueError):
            parse_monomial("d", 3)  # outside ambient
        with pytest.raises(ValueError):
            parse_monomial("x0", 3)
        with pytest.raises(ValueError):
            parse_monomial("a**b", 3)

    @given(small_monomials)
    def test_round_trip(self, mono):
        n = mono.n
        assert parse_monomial(str(mono), n) == mono
        assert parse_monomial(mono.canonical(), n) == mono


class TestVarRange:
    def test_basics(self):
        r = VarRange(2, 4)
        assert list(r.indices()) == [2, 3, 4]
        assert len(r) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            VarRange(3, 2)
        with pytest.raises(ValueError):
            VarRange(0, 2)


class TestLcm:
    def test_examples(self):
        assert lcm(m("ab"), m("ac")) == m("abc")
        assert lcm(m("bc"), m("bc")) == m("bc")
        assert lcm(m("b^5*c"), m("a*b^3*c^2")) == m("a*b^5*c^2")

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            lcm(m("a", 2), m("a", 3))

    def test_lcm_many(self):
        assert lcm_many([m("a^2"), m("ab"), m("bc")]) == m("a^2*b*c")
        with pytest.raises(ValueError):
            lcm_many([])

    @given(small_monomials, st.data())
    def test_lcm_bounds(self, a, data):
        b = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=a.n,
                max_size=a.n,
            ).map(lambda e: Monomial(tuple(e)))
        )
        j = lcm(a, b)
        assert a.divides(j) and b.divides(j)
        assert all(x == max(p, q) for x, p, q in zip(j.exps, a.exps, b.exps))


class TestOrders:
    def test_suffix_sums(self):
        assert suffix_sums(m("a*b^3*c^2")) == (6, 5, 2)
        assert suffix_sums(unit(3)) == (0, 0, 0)
        assert suffix_sums(m("bc"))[0] == m("bc").degree

    def test_rlex_degree_two(self):
        # a^2 > ab > b^2 > ac > bc > c^2 in right-lex
        expected = ["a^2", "a*b", "b^2", "a*c", "b*c", "c^2"]
        got = sorted(monomials_of_degree(3, 2), key=rlex_key)
        assert [g.canonical().replace("x1", "a").replace("x2", "b").replace("x3", "c") for g in got] == expected

    def test_rlex_cmp(self):
        assert rlex_cmp(m("a^2"), m("ab")) == 1
        assert rlex_cmp(m("ab"), m("a^2")) == -1
        assert rlex_cmp(m("bc"), m("bc")) == 0
        with pytest.raises(ValueError):
            rlex_cmp(m("a"), m("a^2"))

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_rlex_total_order(self, n, d, data):
        pool = list(monomials_of_degree(n, d))
        a = data.draw(st.sampled_from(pool))
        b = data.draw(st.sampled_from(pool))
        c = rlex_cmp(a, b)
        assert c == -rlex_cmp(b, a)
        assert (c == 0) == (a == b)

    def test_canonical_key_orders_by_degree_first(self):
        ms = [m("bc"), m("a"), m("a^3")]
        assert sorted(ms, key=canonical_key) == [m("a"), m("bc"), m("a^3")]


class TestEnumeration:
    @pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 2), (4, 3)])
    def test_count(self, n, d):
        pool = list(monomials_of_degree(n, d))
        assert len(pool) == comb(n + d - 1, d)
        assert len(set(pool)) == len(pool)
        assert all(q.degree == d for q in pool)

    def test_degree_zero(self):
        assert list(monomials_of_degree(3, 0)) == [unit(3)]

    def test_errors(self):
        with pytest.raises(ValueError):
            list(monomials_of_degree(0, 2))


class TestMinimalUnderDivisibility:
    def test_example(self):
        out = minimal_under_divisibility([m("ab"), m("a*b^2"), m("b^3")])
        assert out == (m("ab"), m("b^3"))

    def test_duplicates_collapse(self):
        assert minimal_under_divisibility([m("ab"), m("ab")]) == (m("ab"),)

    def test_ambient_mismatch(self):
        # one degree, so no pair is ever compared by divisibility
        with pytest.raises(ValueError, match="ambient"):
            minimal_under_divisibility([m("ab"), m("ab", 4)])

    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=3, max_size=3).map(
                lambda e: Monomial(tuple(e))
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_antichain(self, ms):
        out = minimal_under_divisibility(ms)
        for p, q in itertools.permutations(out, 2):
            assert not p.divides(q)

    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=3, max_size=3).map(
                lambda e: Monomial(tuple(e))
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_minimal_elements_of_mixed_degrees(self, ms):
        # a sub-antichain of the input that every input is divisible by is
        # exactly the set of minimal elements
        out = minimal_under_divisibility(ms)
        assert set(out) <= set(ms)
        assert list(out) == sorted(out, key=canonical_key)
        for p, q in itertools.permutations(out, 2):
            assert not p.divides(q)
        for q in ms:
            assert any(p.divides(q) for p in out)
