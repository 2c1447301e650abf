import inspect
import itertools
import random
import sys
import types
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from borelcell import lattice
from borelcell.borel import BorelIdeal, borel_generators, expand_principal
from borelcell.lattice import (
    ChainBudgetExceeded,
    LcmLattice,
    RankedReport,
    build_lattice,
    is_ranked,
    maximal_chains,
    natural_label_check,
)
from borelcell.monomials import Monomial, canonical_key, parse_monomial, unit
from references import (
    all_borel_ideals,
    lcm_many,
    monomials_of_degree,
    random_borel_minimal,
)


def m(text, n=3):
    return parse_monomial(text, n)


def divides(a, b):
    """a | b on exponent tuples."""
    return all(map(le, a, b))


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
        assert L.exps == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert L.bottom == unit(2) and L.top == m("a*b", 2)
        assert len(L) == 4
        assert m("a", 2) in L and m("a^2", 2) not in L
        assert L.bottom in L and m("a", 3) not in L

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
        assert set(map(Monomial, L.exps)) == joins | {L.bottom}

    @given(borel_ideals)
    @example(random_borel_minimal(4, 3, 2, seed=0))
    @settings(max_examples=30, deadline=None)
    def test_borel_ideal_equals_its_generator_list(self, I):
        L = build_lattice(I)
        K = build_lattice(sorted(I.expanded, key=canonical_key))
        assert L.atoms == K.atoms
        assert L.exps == K.exps

    def test_atoms_are_minimalized(self):
        L = build_lattice([m("a*b", 2), m("a", 2)])
        assert L.atoms == (m("a", 2),)

    def test_cover_properties(self):
        L = build_lattice(expand_principal(m("bc")))
        assert list(L.lower_covers) == list(L.exps[1:])
        for b, covs in L.lower_covers.items():
            assert len(set(covs)) == len(covs)
            for c in covs:
                assert c != b and divides(c, b) and c in L.exps
            for c, d in itertools.permutations(covs, 2):
                assert not divides(c, d)

    def test_covers_are_complete_on_the_mixed_lattice(self):
        # b covers c iff c | b, c != b, and no element lies strictly between
        L = mixed_lattice()
        for b in L.exps[1:]:
            below = [c for c in L.exps if c != b and divides(c, b)]
            expected = [
                c
                for c in below
                if not any(k != c and divides(c, k) for k in below)
            ]
            assert sorted(L.lower_covers[b]) == sorted(expected)

    def test_interval(self):
        L = build_lattice(expand_principal(m("bc")))
        lo, hi = m("a*b"), m("a^2*b^2*c")
        inside = L.interval(lo, hi)
        assert list(inside) == [
            e for e in L.exps if divides(lo.exps, e) and divides(e, hi.exps)
        ]
        assert next(iter(inside)) == lo.exps and list(inside)[-1] == hi.exps
        # each element maps to its lower covers that lie in the interval
        assert inside[lo.exps] == ()
        for b in list(inside)[1:]:
            assert sorted(inside[b]) == sorted(
                c for c in L.lower_covers[b] if divides(lo.exps, c)
            )

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

    def test_degree_gap_goes_to_the_chains_pass(self):
        # B_2 is ranked although the cover a^2 < a^2*b^2 raises degree by 2:
        # the degree test can only confirm rankedness
        L = build_lattice([m("a^2", 2), m("b^2", 2)])
        assert (2, 0) in L.lower_covers[(2, 2)]
        assert is_ranked(L) == RankedReport(True, "chains")

    def test_unranked_equigenerated_lattice(self):
        report = is_ranked(build_lattice([m(t) for t in ("a^2", "ab", "bc", "c^2")]))
        assert not report.ranked
        assert report.criterion == "chains"
        assert report.witness_interval == (unit(3), m("a^2*b*c^2"), (3, 4))
        lo, hi = report.witness_cover
        assert hi.degree >= lo.degree + 2

    @pytest.mark.parametrize("n, d, count", [(3, 3, 15), (4, 3, 65), (3, 4, 31), (3, 5, 63)])
    def test_every_borel_ideal_passes_the_degree_test(self, n, d, count):
        ideals = all_borel_ideals(n, d)
        assert len(ideals) == count
        for expanded in ideals:
            L = build_lattice(BorelIdeal.from_expanded(n, expanded))
            assert is_ranked(L) == RankedReport(True, "degree")

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

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(lattice, "CHAIN_TABLE_BUDGET", 2)
        with pytest.raises(ChainBudgetExceeded):
            is_ranked(mixed_lattice())


def all_pairs_is_ranked(L):
    """Rankedness by the all-pairs chain-length table over every interval,
    on the covers of the join-and-filter reference; unit degree steps
    confirm it for equigenerated atoms."""
    upper = {
        Monomial(e): tuple(map(Monomial, cs)) for e, cs in join_filter_covers(L).items()
    }
    elements = list(upper)  # canonically ordered
    if len({a.degree for a in L.atoms}) == 1 and all(
        c.degree == x.degree + 1 for x in elements[1:] for c in upper[x]
    ):
        return RankedReport(True, "degree")
    memo = {}
    for lo in sorted(elements, key=lambda e: -e.degree):
        for hi in elements:
            if not lo.divides(hi):
                continue
            if lo == hi:
                memo[(lo, hi)] = frozenset([0])
                continue
            memo[(lo, hi)] = frozenset(
                l + 1
                for c in upper[lo]
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
        ((x, c) for x in elements for c in upper[x]
         if c.degree >= x.degree + 2),
        key=lambda p: (p[0] == L.bottom, canonical_key(p[0]), canonical_key(p[1])),
    )
    return RankedReport(
        False,
        "chains",
        witness_cover=jumps[0] if jumps else None,
        witness_interval=(lo, hi, tuple(sorted(memo[(lo, hi)]))),
    )


def borel_of_mixed_degrees(max_n):
    """Borel generators of mixed degree 1..3 in at most max_n variables."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from(
                [g for d in (1, 2, 3) for g in monomials_of_degree(n, d)]
            ),
            min_size=1,
            max_size=3,
        ).map(lambda gens: list(borel_generators(n, gens)))
    )


mixed_borel = borel_of_mixed_degrees(4)


class TestRankedAgainstAllPairs:
    @given(st.one_of(generator_lists, mixed_borel))
    @example([m(t, 4) for t in ("ab", "ac", "a*d^2", "b^2*c*d^2")])
    @example([m("a^2", 2), m("b^2", 2)])
    @example([m(t) for t in ("a^2", "ab", "bc", "c^2")])
    @example([m("a", 3), m("b^2", 3), m("c^3", 3)])
    @example(  # three chain lengths (2, 3, 4) under the top
        [m(t, 6) for t in ("x1*x2*x4", "x2*x3*x4", "x1*x4*x5", "x3*x4*x5*x6", "x1*x2*x3*x5*x6")]
    )
    @settings(max_examples=80, deadline=None)
    def test_same_report_as_the_all_pairs_table(self, gens):
        L = build_lattice(gens)
        assert is_ranked(L) == all_pairs_is_ranked(L)

    def test_budget_bounds_the_bottom_table(self, monkeypatch):
        L = mixed_lattice()
        monkeypatch.setattr(lattice, "CHAIN_TABLE_BUDGET", len(L))
        assert not is_ranked(L)
        monkeypatch.setattr(lattice, "CHAIN_TABLE_BUDGET", 5)
        with pytest.raises(ChainBudgetExceeded, match="budget 5"):
            is_ranked(L)


def closure_lattice(gens):
    """The lattice by closure, as exponent tuples: join every minimal
    generator with every element found so far, from the bottom up."""
    pool = set(gens.expanded if isinstance(gens, BorelIdeal) else gens)
    atoms = [g.exps for g in pool if not any(h != g and h.divides(g) for h in pool)]
    elements = {(0,) * len(atoms[0])}
    for a in atoms:
        elements |= {tuple(map(max, e, a)) for e in elements}
    return elements


# up to 8 generators of mixed degree 1..4 in at most 5 variables
wide_generator_lists = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.sampled_from(
            [g for d in (1, 2, 3, 4) for g in monomials_of_degree(n, d)]
        ),
        min_size=1,
        max_size=8,
    )
)

# Borel ideals generated in one degree, up to several hundred generators
wide_borel_ideals = st.sampled_from(
    [(4, 3), (4, 4), (5, 2), (5, 3), (6, 2)]
).flatmap(
    lambda nd: st.lists(
        st.sampled_from(list(monomials_of_degree(*nd))), min_size=1, max_size=3
    ).map(lambda gens: BorelIdeal.from_borel_gens(nd[0], gens))
)


class TestMembershipAgainstClosure:
    """The membership-test enumeration finds the closure's elements."""

    @given(
        st.one_of(
            generator_lists, wide_generator_lists, borel_ideals,
            wide_borel_ideals, mixed_borel,
        )
    )
    @example(expand_principal(m("x4^4", 4)))
    @example(mixed_lattice().atoms)
    @settings(max_examples=120, deadline=None)
    def test_same_elements_as_the_closure(self, gens):
        L = build_lattice(gens)
        assert set(L.exps) == closure_lattice(gens)
        assert list(L.exps) == sorted(L.exps, key=lambda e: canonical_key(Monomial(e)))

    @given(st.one_of(generator_lists, borel_ideals, mixed_borel))
    @example(mixed_lattice().atoms)
    @settings(max_examples=60, deadline=None)
    def test_membership_rule_on_every_tuple_up_to_the_top(self, gens):
        # one past the top in each variable, so exponents no atom has are
        # tested too
        L = build_lattice(gens)
        elements = set(L.exps)
        box = itertools.product(*(range(k + 2) for k in L.top.exps))
        assert all((Monomial(b) in L) == (b in elements) for b in box)


def join_filter_covers(L):
    """Upper covers by atom joins, as exponent tuples: the elements covering
    m are the divisibility-minimal members of {lcm(m, a) : a an atom} - {m}."""
    atoms = [a.exps for a in L.atoms]
    out = {}
    for m in L.exps:
        joins = {tuple(map(max, m, a)) for a in atoms}
        joins.discard(m)
        # a join above another is above a minimal one of lower degree
        covs = []
        for j in sorted(joins, key=sum):
            if not any(all(map(le, k, j)) for k in covs):
                covs.append(j)
        out[m] = tuple(sorted(covs, key=lambda e: (sum(e), e[::-1])))
    return out


def cover_relation(upper):
    """The canonically ordered upper covers and the sorted (lower, upper)
    pairs; a repeated pair stays in the list."""
    return upper, sorted((m, c) for m, cs in upper.items() for c in cs)


def rule_covers(L):
    """cover_relation of the inverse of `lower_covers`."""
    upper = {e: [] for e in L.exps}
    for b, cs in L.lower_covers.items():  # canonical order
        for c in cs:
            upper[c].append(b)
    return cover_relation({e: tuple(cs) for e, cs in upper.items()})


COVER_CASES = {
    "readme_mixed": lambda: mixed_lattice().atoms,
    "chains": lambda: borel_generators(
        5, [m(t, 5) for t in ("x1*x5", "x2^2*x4", "x3^3", "x2*x5^3")]
    ),
    "P(4,4)": lambda: expand_principal(m("x4^4", 4)),
    "P(5,3)": lambda: expand_principal(m("x5^3", 5)),
    "P(5,4)": lambda: expand_principal(m("x5^4", 5)),
}

# one edit each to the cover rule of borelcell.lattice: skip the last
# variable, or keep the c_v below another one
COVER_MUTANTS = {
    "skips_a_variable": (
        "for ms, e in zip(below, b) if e}", "for ms, e in zip(below[:-1], b) if e}"
    ),
    "keeps_non_maximal": ("if any(other != live and", "if False and any(other != live and"),
}


def mutant_lattice(monkeypatch, old, new):
    """borelcell.lattice with one edit to its source, loaded as a module of
    its own."""
    source = inspect.getsource(lattice)
    assert source.count(old) == 1, old
    module = types.ModuleType("borelcell.lattice_mutant")
    module.__package__ = "borelcell"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), lattice.__file__, "exec"), module.__dict__)
    return module


class TestCoversAgainstJoins:
    """The cover rule read off the generator masks finds the cover relation
    of the join-and-filter loop it replaced."""

    @given(
        st.one_of(
            generator_lists, wide_generator_lists, borel_ideals,
            borel_of_mixed_degrees(5),
        )
    )
    @example([m("a^2", 2), m("b^2", 2)])
    @example([m(t) for t in ("a^2", "ab", "bc", "c^2")])
    @settings(max_examples=120, deadline=None)
    def test_same_covers_as_the_joins(self, gens):
        L = build_lattice(gens)
        assert rule_covers(L) == cover_relation(join_filter_covers(L))

    @pytest.mark.parametrize("case", COVER_CASES)
    def test_fixed_ideals(self, case):
        L = build_lattice(COVER_CASES[case]())
        assert rule_covers(L) == cover_relation(join_filter_covers(L))

    @pytest.mark.parametrize("mutant", COVER_MUTANTS)
    def test_a_mutant_rule_disagrees(self, monkeypatch, mutant):
        module = mutant_lattice(monkeypatch, *COVER_MUTANTS[mutant])
        disagree = []
        for case in ("readme_mixed", "chains", "P(4,4)"):
            L = module.build_lattice(COVER_CASES[case]())
            if rule_covers(L) != cover_relation(join_filter_covers(L)):
                disagree.append(case)
        assert disagree


def reference_chains(upper, lo, hi):
    """The maximal chains of [lo, hi] as exponent tuples, by a walk up the
    upper covers `upper` from lo that keeps the covers dividing hi: each
    chain bottom-up, in lexicographic canonical order."""
    out, stack = [], [lo]

    def walk(cur):
        if cur == hi:
            out.append(tuple(stack))
            return
        for c in upper[cur]:
            if divides(c, hi):
                stack.append(c)
                walk(c)
                stack.pop()

    walk(lo)
    return out


def label_disagreements(module, L, upper, intervals):
    """The intervals on which the chains or labels of `module` differ from
    the walk over `upper`; a rejected interval counts as one."""
    bad = []
    for lo, hi in intervals:
        chains = [tuple(map(Monomial, ch)) for ch in reference_chains(upper, lo, hi)]
        labels = tuple(
            tuple(b.quotient(a).max_index() for a, b in zip(ch, ch[1:]))
            for ch in chains
        )
        try:
            listed = module.maximal_chains(L, Monomial(lo), Monomial(hi))
            report = module.natural_label_check(L, Monomial(lo), Monomial(hi))
        except ValueError:
            bad.append((lo, hi))
            continue
        if (listed, report.chains, report.labels) != (chains, tuple(chains), labels):
            bad.append((lo, hi))
    return bad


def random_intervals(L, rng, count, gap=6):
    """count random intervals [lo, hi] of L, hi at most gap degrees above
    lo."""
    out = []
    for _ in range(count):
        lo = rng.choice(L.exps)
        above = [e for e in L.exps if divides(lo, e) and sum(e) - sum(lo) <= gap]
        out.append((lo, rng.choice(above)))
    return out


# one edit each to the interval walk of borelcell.lattice: keep the covers
# lo does not divide, or list the chains in walk order
LABEL_MUTANTS = {
    "keeps_covers_below_lo": (" if all(map(le, lo.exps, c))", ""),
    "unsorted_chains": ("chains.sort(key=", "sorted(chains, key="),
}


class TestChainsAgainstJoins:
    """The chains and labels read off the interval walk equal, in order,
    the bottom-up walk over the join-and-filter covers it replaced."""

    @given(
        st.one_of(
            generator_lists, wide_generator_lists, borel_ideals,
            borel_of_mixed_degrees(5),
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_intervals(self, gens, rng):
        L = build_lattice(gens)
        upper = join_filter_covers(L)
        assert label_disagreements(lattice, L, upper, random_intervals(L, rng, 3)) == []

    @pytest.mark.parametrize("case", COVER_CASES)
    def test_fixed_ideals(self, case):
        L = build_lattice(COVER_CASES[case]())
        intervals = random_intervals(L, random.Random(case), 20)
        assert label_disagreements(lattice, L, join_filter_covers(L), intervals) == []

    def test_whole_mixed_lattice(self):
        L = mixed_lattice()
        interval = [(L.exps[0], L.exps[-1])]
        assert label_disagreements(lattice, L, join_filter_covers(L), interval) == []

    @pytest.mark.parametrize("mutant", LABEL_MUTANTS)
    def test_a_mutant_walk_disagrees(self, monkeypatch, mutant):
        module = mutant_lattice(monkeypatch, *LABEL_MUTANTS[mutant])

        def disagrees(case):
            L = module.build_lattice(COVER_CASES[case]())
            intervals = random_intervals(L, random.Random(case), 20)
            return label_disagreements(module, L, join_filter_covers(L), intervals)

        # stops at the first case that disagrees: without the filter, a walk
        # from a high hi lists chains from the bottom up to the budget
        assert any(map(disagrees, ("readme_mixed", "chains", "P(4,4)")))


class TestIntervalLocality:
    """A labels check computes the lower covers of its interval's elements
    only, each once, and never those of the whole lattice."""

    @pytest.mark.parametrize(
        "lo, hi", [("1", "x1^2*x2^2"), ("x1^2*x2^2", "x1^3*x2^3*x3")]
    )
    def test_labels_read_only_their_interval(self, monkeypatch, lo, hi):
        L = build_lattice(expand_principal(m("x6^4", 6)))
        lo, hi = m(lo, 6), m(hi, 6)
        calls = []
        helper = lattice._lower_covers
        monkeypatch.setattr(
            lattice, "_lower_covers", lambda below, b: calls.append(b) or helper(below, b)
        )
        report = natural_label_check(L, lo, hi)
        inside = {e for e in L.exps if divides(lo.exps, e) and divides(e, hi.exps)}
        assert len(calls) == len(set(calls)) and set(calls) <= inside
        assert "lower_covers" not in vars(L)
        assert report.chains and all(ch[0] == lo and ch[-1] == hi for ch in report.chains)


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

    def test_budget_guard(self, monkeypatch):
        L = build_lattice(expand_principal(m("c^2")))
        monkeypatch.setattr(lattice, "CHAIN_BUDGET", 1)
        with pytest.raises(ChainBudgetExceeded):
            maximal_chains(L, L.bottom, L.top)

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
    def test_exps_are_sorted_by_degree_first(self):
        L = build_lattice(expand_principal(m("bc")))
        degs = [sum(e) for e in L.exps]
        assert degs == sorted(degs)
        assert L.exps[0] == L.bottom.exps

    def test_frozen(self):
        L = build_lattice([m("a", 2), m("b", 2)])
        with pytest.raises(AttributeError):
            L.n = 5
        assert isinstance(L, LcmLattice)
