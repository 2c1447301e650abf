"""The lcm lattice of a monomial ideal.

Elements are the unit (bottom) together with the lcms of all nonempty sets
of minimal generators, ordered by divisibility.  One closure over exponent
tuples serves both input kinds: a BorelIdeal contributes its expanded
generators, which go through the same checks and minimalization as a
generator list, and each element becomes a Monomial once, at the end.
Covers are computed from atom joins: the elements covering m are the
divisibility-minimal members of {lcm(m, a) : a an atom, lcm(m, a) != m}.

Rankedness: with equigenerated atoms the check is the degree criterion,
every cover above the bottom raises degree by exactly one (sufficient for
rankedness since degree then grades every interval).  With mixed-degree
atoms the general definition is checked instead: all maximal chains of
every interval have equal length.  Maximal chains are cover paths, so one
pass up the covers in canonical (degree-first) order carries the set of
chain lengths of every [bottom, x].  Checking those intervals alone is
exact: if each has a single length rho(x), then rho(c) = rho(m) + 1 for
every cover m < c, so rho is a rank function and every chain of [m, n] has
length rho(n) - rho(m).  The witness is the first x with several lengths,
the bottom being the canonically first lower end.  A budget bounds them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import le

from .borel import BorelIdeal
from .monomials import (
    Monomial,
    canonical_key,
    lcm_many,
    minimal_under_divisibility,
    unit,
)

__all__ = [
    "LcmLattice",
    "build_lattice",
    "RankedReport",
    "is_ranked",
    "maximal_chains",
    "LabelChainReport",
    "natural_label_check",
    "ChainBudgetExceeded",
]


class ChainBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class LcmLattice:
    n: int
    atoms: tuple[Monomial, ...]
    elements: frozenset[Monomial]

    @property
    def bottom(self) -> Monomial:
        return unit(self.n)

    @cached_property
    def top(self) -> Monomial:
        return lcm_many(self.atoms)

    def __contains__(self, m: Monomial) -> bool:
        return m in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def sorted_elements(self) -> tuple[Monomial, ...]:
        return tuple(sorted(self.elements, key=canonical_key))

    @cached_property
    def covers(self):
        """Map m -> tuple of elements covering m, canonically ordered."""
        element = {e.exps: e for e in self.elements}
        atoms = [a.exps for a in self.atoms]
        out = {}
        for m in self.sorted_elements:
            joins = {tuple(map(max, m.exps, a)) for a in atoms}
            joins.discard(m.exps)
            # a join above another is above a minimal one of lower degree
            covs: list[tuple[int, ...]] = []
            for j in sorted(joins, key=sum):
                if not any(all(map(le, k, j)) for k in covs):
                    covs.append(j)
            out[m] = tuple(sorted((element[j] for j in covs), key=canonical_key))
        return out

    def interval(self, lo: Monomial, hi: Monomial) -> tuple[Monomial, ...]:
        if lo not in self.elements or hi not in self.elements:
            raise ValueError("interval endpoints must be lattice elements")
        if not lo.divides(hi):
            raise ValueError(f"{lo} does not divide {hi}")
        return tuple(
            e
            for e in self.sorted_elements
            if lo.divides(e) and e.divides(hi)
        )


def build_lattice(gens) -> LcmLattice:
    """Lattice of an ideal given by generators (a BorelIdeal is accepted)."""
    gens = list(gens.expanded if isinstance(gens, BorelIdeal) else gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("ambient mismatch")
    if any(g.is_unit for g in gens):
        raise ValueError("unit generator makes the whole ring")
    atoms = minimal_under_divisibility(gens)
    elements = {(0,) * n}
    for a in (a.exps for a in atoms):
        # joins of the atom sets whose last atom is a (the unit joins to a)
        elements |= {tuple(map(max, e, a)) for e in elements}
    return LcmLattice(
        n=n, atoms=atoms, elements=frozenset(map(Monomial, elements))
    )


@dataclass(frozen=True)
class RankedReport:
    ranked: bool
    criterion: str  # "degree" (equigenerated atoms) or "chains" (general)
    witness_cover: tuple[Monomial, Monomial] | None = None
    witness_interval: tuple[Monomial, Monomial, tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        return self.ranked


def is_ranked(L: LcmLattice, chain_budget: int = 500_000) -> RankedReport:
    """Decide rankedness; see the module docstring for the two criteria."""
    if len({a.degree for a in L.atoms}) == 1:
        for m in L.sorted_elements[1:]:  # the bottom sorts first
            for c in L.covers[m]:
                if c.degree != m.degree + 1:
                    return RankedReport(False, "degree", witness_cover=(m, c))
        return RankedReport(True, "degree")

    # chain lengths of [bottom, x], pushed up the covers; every lower cover
    # of x has lower degree, so sorts first and is read, complete, before x
    lengths: dict[Monomial, set[int]] = {L.bottom: {0}}
    entries = 0
    for x in L.sorted_elements:
        ls = lengths.pop(x)
        entries += len(ls)
        if entries > chain_budget:
            raise ChainBudgetExceeded(
                f"chain-length table exceeded budget {chain_budget}"
            )
        if len(ls) > 1:
            break
        for c in L.covers[x]:
            lengths.setdefault(c, set()).update(l + 1 for l in ls)
    else:
        return RankedReport(True, "chains")
    # prefer a jump cover away from the bottom; one with jump >= 2 always
    # exists on any shorter-than-degree chain of an unranked interval
    jumps = [
        (m, c) for m, cs in L.covers.items() for c in cs if c.degree > m.degree + 1
    ]
    witness = min(
        jumps,
        key=lambda p: (p[0] == L.bottom, canonical_key(p[0]), canonical_key(p[1])),
        default=None,
    )
    interval = (L.bottom, x, tuple(sorted(ls)))
    return RankedReport(
        False, "chains", witness_cover=witness, witness_interval=interval
    )


def maximal_chains(
    L: LcmLattice, lo: Monomial, hi: Monomial, budget: int = 100_000
) -> list[tuple[Monomial, ...]]:
    """All maximal chains of [lo, hi], each listed bottom-up."""
    L.interval(lo, hi)  # validates endpoints
    out: list[tuple[Monomial, ...]] = []
    stack: list[Monomial] = [lo]

    def walk(cur: Monomial) -> None:
        if cur == hi:
            out.append(tuple(stack))
            if len(out) > budget:
                raise ChainBudgetExceeded(f"more than {budget} maximal chains")
            return
        for c in L.covers[cur]:
            if c.divides(hi):
                stack.append(c)
                walk(c)
                stack.pop()

    walk(lo)
    return out


@dataclass(frozen=True)
class LabelChainReport:
    """Maximal chains of an interval with their edge labels, bottom-up.

    Each cover step m -> c is labeled by max_index(c / m).  A chain whose
    labels strictly increase bottom-up is the same walk as one whose labels
    strictly decrease read from the top downward.
    """

    lo: Monomial
    hi: Monomial
    chains: tuple[tuple[Monomial, ...], ...]
    labels: tuple[tuple[int, ...], ...]
    increasing: tuple[int, ...] = field(default=())  # indices into chains
    decreasing: tuple[int, ...] = field(default=())


def natural_label_check(
    L: LcmLattice, lo: Monomial, hi: Monomial, budget: int = 100_000
) -> LabelChainReport:
    """Label every cover by the largest variable entering, list the chains."""
    chains = maximal_chains(L, lo, hi, budget)
    labels = tuple(
        tuple(
            b.quotient(a).max_index() for a, b in zip(chain, chain[1:])
        )
        for chain in chains
    )
    increasing = tuple(
        i
        for i, ls in enumerate(labels)
        if all(a < b for a, b in zip(ls, ls[1:]))
    )
    decreasing = tuple(
        i
        for i, ls in enumerate(labels)
        if all(a > b for a, b in zip(ls, ls[1:]))
    )
    return LabelChainReport(
        lo=lo,
        hi=hi,
        chains=tuple(chains),
        labels=labels,
        increasing=increasing,
        decreasing=decreasing,
    )
