import functools
import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from borelcell import monomials
from borelcell.monomials import (
    Monomial,
    VarRange,
    _below_masks,
    _bits,
    _exps_key,
    _exps_text,
    canonical_key,
    minimal_under_divisibility,
    parse_monomial,
    rlex_key,
    suffix_sums,
    unit,
    variable,
)
from references import exps_text_loop, lcm, lcm_many, monomials_of_degree, rlex_cmp


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


# ---- the exponent-tuple helpers the pipeline shares

exponent_rows = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple),
            max_size=12,
        ),
    )
)


def reference_text(e, letters):
    """The text form written out: factors x<i>^k (or letters), '1' for none."""
    names = [chr(ord("a") + i) if letters else f"x{i + 1}" for i in range(len(e))]
    factors = [names[i] + ("" if k == 1 else f"^{k}") for i, k in enumerate(e) if k]
    return "*".join(factors) if factors else "1"


class TestTupleHelpers:
    @given(exponent_rows)
    def test_key_orders_as_canonical_key(self, case):
        n, rows = case
        ms = [Monomial(e) for e in rows]
        by_key = sorted(rows, key=_exps_key)
        assert by_key == [q.exps for q in sorted(ms, key=canonical_key)]

        # degree first, then rlex-descending, as rlex_cmp compares
        def cmp(a, b):
            return (a.degree > b.degree) - (a.degree < b.degree) or -rlex_cmp(a, b)

        assert by_key == [q.exps for q in sorted(ms, key=functools.cmp_to_key(cmp))]

    @given(exponent_rows)
    def test_text_form(self, case):
        n, rows = case
        for e in [(0,) * n, *rows]:
            q = Monomial(e)
            assert _exps_text(e) == q.canonical() == reference_text(e, False)
            assert _exps_text(e, letters=n <= 4) == str(q) == reference_text(e, n <= 4)
            assert parse_monomial(_exps_text(e), n) == q

    def test_text_form_examples(self):
        assert _exps_text((2, 0, 1)) == "x1^2*x3"
        assert _exps_text((2, 0, 1), letters=True) == "a^2*c"
        assert str(Monomial((0, 1, 0, 0, 3))) == "x2*x5^3"
        assert _exps_text((0, 0)) == _exps_text((0, 0), letters=True) == "1"

    def test_text_table_on_a_grid(self):
        for e in itertools.product(range(5), repeat=4):
            for letters in (False, True):
                assert _exps_text(e, letters) == exps_text_loop(e, letters)

    def test_text_table_grows_past_what_it_holds(self, monkeypatch):
        # from an empty table: each tuple reaches a variable or an exponent
        # no earlier one did, and earlier texts still read the same
        monkeypatch.setattr(monomials, "_FACTORS", {False: [], True: []})
        seen = []
        for e in [(1,), (0, 3), (2, 0, 0, 7), (1,) * 6, (0,) * 8 + (40,),
                  (12, 1, 0, 0, 0, 0, 0, 0, 41, 2), (0,), (0,) * 12]:
            seen.append(e)
            for f in seen:
                for letters in (False, True):
                    assert _exps_text(f, letters) == exps_text_loop(f, letters)
        assert len(monomials._FACTORS[False]) == 10
        assert len(monomials._FACTORS[False][8]) == 42

    @pytest.mark.parametrize("n", [27, 30, 41])
    def test_text_table_past_26_variables(self, monkeypatch, n):
        monkeypatch.setattr(monomials, "_FACTORS", {False: [], True: []})
        rows = [(0,) * n, (3,) + (0,) * (n - 1), (0,) * (n - 1) + (2,),
                tuple(i % 3 for i in range(n)), (0,) * 25 + (1,) + (0,) * (n - 26)]
        for e in rows:
            assert _exps_text(e) == exps_text_loop(e)
            if any(e[26:]):  # no letter past z: both raise
                with pytest.raises(IndexError):
                    exps_text_loop(e, True)
                with pytest.raises(IndexError):
                    _exps_text(e, True)
            else:
                assert _exps_text(e, True) == exps_text_loop(e, True)
        # a failed letters lookup leaves the table readable
        assert _exps_text((1,) * 26 + (0,) * (n - 26), True) == "*".join(
            "abcdefghijklmnopqrstuvwxyz"
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 27])
    def test_text_of_the_unit(self, n):
        for letters in (False, True):
            assert _exps_text((0,) * n, letters) == "1" == exps_text_loop((0,) * n)

    @given(st.integers(0, 1 << 200))
    def test_bits_brute_force(self, mask):
        assert _bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    @given(exponent_rows)
    def test_below_masks_definition(self, case):
        n, rows = case
        below = _below_masks(rows, n)
        assert len(below) == n
        for v, masks in enumerate(below):
            assert len(masks) == max((e[v] for e in rows), default=0) + 1
            for k, mask in enumerate(masks):
                for j, e in enumerate(rows):
                    assert (mask >> j & 1) == (e[v] <= k)
                assert mask < 1 << len(rows)

    def test_below_masks_of_no_rows(self):
        assert _below_masks([], 3) == [[0], [0], [0]]

    @given(exponent_rows, st.integers(0, 5))
    def test_below_masks_ambient_mismatch(self, case, extra):
        n, rows = case
        bad = (0,) * (n + 1 + extra)
        for i in range(len(rows) + 1):
            with pytest.raises(ValueError, match="ambient mismatch"):
                _below_masks(rows[:i] + [bad] + rows[i:], n)
