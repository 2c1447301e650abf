import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from borelcell.borel import (
    BorelIdeal,
    borel_generators,
    expand_principal,
    random_borel_minimal,
)
from borelcell.lattice import (
    ChainBudgetExceeded,
    LcmLattice,
    RankedReport,
    build_lattice,
    is_ranked,
    maximal_chains,
    natural_label_check,
)
from borelcell.monomials import (
    canonical_key,
    lcm_many,
    monomials_of_degree,
    parse_monomial,
    unit,
)


def m(text, n=3):
    return parse_monomial(text, n)


def mixed_lattice():
    gens = [m(t, 4) for t in ("ab", "ac", "a*d^2", "b^2*c*d^2")]
    return build_lattice(list(borel_generators(4, gens)))


# up to 5 generators of mixed degree 1..3 in at most 4 variables
generator_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.sampled_from(
            [g for d in (1, 2, 3) for g in monomials_of_degree(n, d)]
        ),
        min_size=1,
        max_size=5,
    )
)

# Borel ideals with at most 10 minimal generators, so 2^10 atom subsets
borel_ideals = st.sampled_from(
    [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
).flatmap(
    lambda nd: st.lists(
        st.sampled_from(list(monomials_of_degree(*nd))), min_size=1, max_size=3
    ).map(lambda gens: BorelIdeal.from_borel_gens(nd[0], gens))
)


class TestBuildLattice:
    def test_two_variables(self):
        L = build_lattice([m("a", 2), m("b", 2)])
        assert L.elements == {unit(2), m("a", 2), m("b", 2), m("a*b", 2)}
        assert L.bottom == unit(2) and L.top == m("a*b", 2)
        assert len(L) == 4
        assert m("a", 2) in L and m("a^2", 2) not in L

    def test_borel_ideal_input(self):
        L = build_lattice(expand_principal(m("bc")))
        assert L.atoms == (m("a^2"), m("a*b"), m("b^2"), m("a*c"), m("b*c"))
        assert L.top == m("a^2*b^2*c")

    @given(st.one_of(generator_lists, borel_ideals))
    @example(expand_principal(m("bc")))
    @settings(max_examples=60, deadline=None)
    def test_elements_match_subset_joins(self, gens):
        # independent description: the atoms are the generators no other
        # generator strictly divides, one join per nonempty atom subset
        L = build_lattice(gens)
        pool = set(gens.expanded if isinstance(gens, BorelIdeal) else gens)
        minimal = {g for g in pool if not any(h != g and h.divides(g) for h in pool)}
        assert set(L.atoms) == minimal
        joins = {
            lcm_many(combo)
            for k in range(1, len(L.atoms) + 1)
            for combo in itertools.combinations(L.atoms, k)
        }
        assert L.elements == joins | {L.bottom}

    @given(borel_ideals)
    @example(random_borel_minimal(4, 3, 2, seed=0))
    @settings(max_examples=30, deadline=None)
    def test_borel_ideal_equals_its_generator_list(self, I):
        L = build_lattice(I)
        K = build_lattice(sorted(I.expanded, key=canonical_key))
        assert L.atoms == K.atoms
        assert L.elements == K.elements

    def test_atoms_are_minimalized(self):
        L = build_lattice([m("a*b", 2), m("a", 2)])
        assert L.atoms == (m("a", 2),)

    def test_cover_properties(self):
        L = build_lattice(expand_principal(m("bc")))
        for e in L.sorted_elements:
            covs = L.covers[e]
            assert len(set(covs)) == len(covs)
            for c in covs:
                assert e != c and e.divides(c)
            for c, d in itertools.permutations(covs, 2):
                assert not c.divides(d)

    def test_covers_are_complete_on_the_mixed_lattice(self):
        # c covers e iff e | c, e != c, and no element lies strictly between
        L = mixed_lattice()
        for e in L.sorted_elements:
            above = [c for c in L.sorted_elements if c != e and e.divides(c)]
            expected = [
                c
                for c in above
                if not any(k != c and k.divides(c) for k in above)
            ]
            assert L.covers[e] == tuple(expected)

    def test_interval(self):
        L = build_lattice(expand_principal(m("bc")))
        inside = L.interval(m("a*b"), m("a^2*b^2*c"))
        assert m("a*b") in inside and m("a^2*b^2*c") in inside
        assert all(m("a*b").divides(e) for e in inside)

    def test_interval_validation(self):
        L = build_lattice(expand_principal(m("bc")))
        with pytest.raises(ValueError, match="lattice elements"):
            L.interval(m("a"), L.top)
        with pytest.raises(ValueError, match="does not divide"):
            L.interval(m("b*c"), m("a*b"))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            build_lattice([])
        with pytest.raises(ValueError, match="ambient"):
            build_lattice([m("a", 2), m("a", 3)])
        with pytest.raises(ValueError, match="unit"):
            build_lattice([unit(2)])

    def test_mixed_ideal_size(self):
        L = mixed_lattice()
        assert len(L.atoms) == 13
        assert len(L) == 130


class TestIsRanked:
    def test_equal_degrees_use_the_degree_criterion(self):
        report = is_ranked(build_lattice(expand_principal(m("bc"))))
        assert report and report.ranked
        assert report.criterion == "degree"
        assert report.witness_cover is None

    def test_degree_gap_flagged(self):
        report = is_ranked(build_lattice([m("a^2", 2), m("b^2", 2)]))
        assert not report
        assert report.criterion == "degree"
        assert report.witness_cover == (m("a^2", 2), m("a^2*b^2", 2))

    def test_random_borel_lattices_are_ranked(self):
        for seed in range(8):
            I = random_borel_minimal(4, 3, 2, seed=seed)
            assert is_ranked(build_lattice(I)).ranked

    def test_mixed_ideal_is_not_ranked(self):
        report = is_ranked(mixed_lattice())
        assert not report.ranked
        assert report.criterion == "chains"
        lo, hi = report.witness_cover
        assert hi.degree >= lo.degree + 2
        lo_i, hi_i, lengths = report.witness_interval
        assert lo_i == unit(4)
        assert len(lengths) >= 2

    def test_budget_guard(self):
        with pytest.raises(ChainBudgetExceeded):
            is_ranked(mixed_lattice(), chain_budget=2)


def all_pairs_is_ranked(L):
    """Rankedness by the all-pairs chain-length table over every interval."""
    if len({a.degree for a in L.atoms}) == 1:
        for x in L.sorted_elements[1:]:
            for c in L.covers[x]:
                if c.degree != x.degree + 1:
                    return RankedReport(False, "degree", witness_cover=(x, c))
        return RankedReport(True, "degree")
    memo = {}
    for lo in sorted(L.sorted_elements, key=lambda e: -e.degree):
        for hi in L.sorted_elements:
            if not lo.divides(hi):
                continue
            if lo == hi:
                memo[(lo, hi)] = frozenset([0])
                continue
            memo[(lo, hi)] = frozenset(
                l + 1
                for c in L.covers[lo]
                if c.divides(hi)
                for l in memo[(c, hi)]
            )
    bad = sorted(
        ((lo, hi) for (lo, hi), ls in memo.items() if len(ls) > 1),
        key=lambda p: (canonical_key(p[0]), canonical_key(p[1])),
    )
    if not bad:
        return RankedReport(True, "chains")
    lo, hi = bad[0]
    jumps = sorted(
        ((x, c) for x in L.sorted_elements for c in L.covers[x]
         if c.degree >= x.degree + 2),
        key=lambda p: (p[0] == L.bottom, canonical_key(p[0]), canonical_key(p[1])),
    )
    return RankedReport(
        False,
        "chains",
        witness_cover=jumps[0] if jumps else None,
        witness_interval=(lo, hi, tuple(sorted(memo[(lo, hi)]))),
    )


# Borel generators of mixed degree 1..3 in at most 4 variables
mixed_borel = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.sampled_from(
            [g for d in (1, 2, 3) for g in monomials_of_degree(n, d)]
        ),
        min_size=1,
        max_size=3,
    ).map(lambda gens: list(borel_generators(n, gens)))
)


class TestRankedAgainstAllPairs:
    @given(st.one_of(generator_lists, mixed_borel))
    @example([m(t, 4) for t in ("ab", "ac", "a*d^2", "b^2*c*d^2")])
    @example([m("a^2", 2), m("b^2", 2)])
    @example([m("a", 3), m("b^2", 3), m("c^3", 3)])
    @example(  # three chain lengths (2, 3, 4) under the top
        [m(t, 6) for t in ("x1*x2*x4", "x2*x3*x4", "x1*x4*x5", "x3*x4*x5*x6", "x1*x2*x3*x5*x6")]
    )
    @settings(max_examples=80, deadline=None)
    def test_same_report_as_the_all_pairs_table(self, gens):
        L = build_lattice(gens)
        assert is_ranked(L) == all_pairs_is_ranked(L)

    def test_budget_bounds_the_bottom_table(self):
        L = mixed_lattice()
        assert not is_ranked(L, chain_budget=len(L))
        with pytest.raises(ChainBudgetExceeded, match="budget 5"):
            is_ranked(L, chain_budget=5)


class TestChains:
    def test_two_variable_square(self):
        L = build_lattice([m("a", 2), m("b", 2)])
        chains = maximal_chains(L, L.bottom, L.top)
        assert set(chains) == {
            (unit(2), m("a", 2), m("a*b", 2)),
            (unit(2), m("b", 2), m("a*b", 2)),
        }

    def test_single_point_interval(self):
        L = build_lattice([m("a", 2), m("b", 2)])
        assert maximal_chains(L, L.top, L.top) == [(L.top,)]

    def test_budget_guard(self):
        L = build_lattice(expand_principal(m("c^2")))
        with pytest.raises(ChainBudgetExceeded):
            maximal_chains(L, L.bottom, L.top, budget=1)

    def test_labels_on_the_square(self):
        L = build_lattice([m("a", 2), m("b", 2)])
        report = natural_label_check(L, L.bottom, L.top)
        assert len(report.chains) == 2
        assert sorted(report.labels) == [(1, 2), (2, 1)]
        assert len(report.increasing) == 1
        assert len(report.decreasing) == 1
        # read from the top down, exactly the increasing chains decrease
        from_top = tuple(
            i
            for i, ls in enumerate(report.labels)
            if all(a > b for a, b in zip(ls[::-1], ls[-2::-1]))
        )
        assert from_top == report.increasing
        inc = report.labels[report.increasing[0]]
        assert inc == (1, 2)

    def test_mixed_ideal_interval_has_no_decreasing_chain_from_top(self):
        L = mixed_lattice()
        report = natural_label_check(L, unit(4), m("a*b^2*c*d^2", 4))
        assert len(report.chains) == 7
        assert report.increasing == ()
        assert not any(
            all(a > b for a, b in zip(ls[::-1], ls[-2::-1])) for ls in report.labels
        )
        assert len(report.decreasing) == 1

    def test_final_membership_pair(self):
        gens = [m("x1*x3^3", 4), m("x2^2*x3*x4", 4)]
        L = build_lattice(list(borel_generators(4, gens)))
        assert m("x2^2*x3^2*x4", 4) in L
        assert m("x2^2*x3^3", 4) not in L


class TestLcmLatticeType:
    def test_sorted_elements_are_sorted_by_degree_first(self):
        L = build_lattice(expand_principal(m("bc")))
        degs = [e.degree for e in L.sorted_elements]
        assert degs == sorted(degs)
        assert L.sorted_elements[0] == L.bottom

    def test_frozen(self):
        L = build_lattice([m("a", 2), m("b", 2)])
        with pytest.raises(AttributeError):
            L.n = 5
        assert isinstance(L, LcmLattice)
