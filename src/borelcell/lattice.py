"""The lcm lattice of a monomial ideal.

Elements are the unit (bottom) together with the lcms of all nonempty sets
of minimal generators, ordered by divisibility.  A tuple b above the bottom
is one exactly when, for every v with b_v > 0, some generator dividing x^b
has exponent b_v in v: then b is the lcm of the generators dividing it.  So
the lattice is enumerated, not closed under joins: candidates are built
depth-first over the variables, each exponent one the generators have in
that variable, carrying the bitmask of generators dividing the prefix (ANDs
of the "exponent <= k" masks).  A branch is pruned when that mask is empty
or none of it has exponent exactly e in v; each leaf takes the full test.
Both input kinds take this path: a BorelIdeal contributes its expanded
generators, which go through the same checks and minimalization as a
generator list.  The lattice keeps its elements as canonically sorted
exponent tuples, which `verify` and the Koszul oracle read; `elements`,
`sorted_elements` and `covers` are Monomial views, built on first use.
Covers are computed from atom joins: the elements covering m are the
divisibility-minimal members of {lcm(m, a) : a an atom, lcm(m, a) != m}.

Rankedness: with equigenerated atoms the degree criterion is tried first,
every cover above the bottom raises degree by exactly one.  It is
sufficient for rankedness, since degree then grades every interval, but not
necessary: the lattice of (a^2, b^2) is ranked though a^2 < a^2*b^2 is a
cover of degree two.  So it only answers yes; every other lattice goes to
the general definition: all maximal chains of every interval have equal
length.  Maximal chains are cover paths, so one pass up the covers in
canonical (degree-first) order carries the set of chain lengths of every
[bottom, x].  Checking those intervals alone is exact: if each has a single
length rho(x), then rho(c) = rho(m) + 1 for every cover m < c, so rho is a
rank function and every chain of [m, n] has length rho(n) - rho(m).  The
witness is the first x with several lengths, the bottom being the
canonically first lower end.  CHAIN_TABLE_BUDGET bounds that table and
CHAIN_BUDGET the maximal chains listed; past either, the CLI exits 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import le

from .borel import BorelIdeal
from .monomials import (
    Monomial,
    _below_masks,
    _exps_key,
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

CHAIN_TABLE_BUDGET = 500_000
CHAIN_BUDGET = 100_000


class ChainBudgetExceeded(ValueError):
    """Too much input for an enumeration budget; the CLI exits 2 on it."""


@dataclass(frozen=True)
class LcmLattice:
    n: int
    atoms: tuple[Monomial, ...]
    exps: tuple[tuple[int, ...], ...]  # canonically sorted, the bottom first

    @property
    def bottom(self) -> Monomial:
        return unit(self.n)

    @cached_property
    def top(self) -> Monomial:
        return lcm_many(self.atoms)

    def __contains__(self, m: Monomial) -> bool:
        return m in self.elements

    def __len__(self) -> int:
        return len(self.exps)

    @cached_property
    def sorted_elements(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial, self.exps))

    @cached_property
    def elements(self) -> frozenset[Monomial]:
        return frozenset(self.sorted_elements)

    @cached_property
    def covers(self):
        """Map m -> tuple of elements covering m, canonically ordered."""
        view = dict(zip(self.exps, self.sorted_elements))
        atoms = [a.exps for a in self.atoms]
        out = {}
        for m in self.exps:
            joins = {tuple(map(max, m, a)) for a in atoms}
            joins.discard(m)
            # a join above another is above a minimal one of lower degree
            covs: list[tuple[int, ...]] = []
            for j in sorted(joins, key=sum):
                if not any(all(map(le, k, j)) for k in covs):
                    covs.append(j)
            out[view[m]] = tuple(view[j] for j in sorted(covs, key=_exps_key))
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
    rows = [a.exps for a in atoms]
    below = _below_masks(rows, n)
    # exact[v][k]: atoms with exponent exactly k in variable v
    exact = [[m ^ (ms[k - 1] if k else 0) for k, m in enumerate(ms)] for ms in below]
    values = [sorted({e[v] for e in rows}) for v in range(n)]
    elements = [(0,) * n]

    def extend(prefix: tuple[int, ...], live: int) -> None:
        # live: the atoms dividing the prefix, some of them reaching each
        # exponent (at e = 0, every atom below it does)
        v = len(prefix)
        if v == n:
            if all(live & x[e] for x, e in zip(exact, prefix)):
                elements.append(prefix)
            return
        for e in values[v]:
            sub = live & below[v][e]
            if sub & exact[v][e]:
                extend(prefix + (e,), sub)

    extend((), (1 << len(atoms)) - 1)
    return LcmLattice(n=n, atoms=atoms, exps=tuple(sorted(elements, key=_exps_key)))


@dataclass(frozen=True)
class RankedReport:
    ranked: bool
    criterion: str  # "degree" (equigenerated, unit cover steps) or "chains"
    witness_cover: tuple[Monomial, Monomial] | None = None
    witness_interval: tuple[Monomial, Monomial, tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        return self.ranked


def is_ranked(L: LcmLattice) -> RankedReport:
    """Decide rankedness; see the module docstring for the two criteria."""
    if len({a.degree for a in L.atoms}) == 1 and all(
        c.degree == m.degree + 1
        for m in L.sorted_elements[1:]  # the bottom sorts first
        for c in L.covers[m]
    ):
        return RankedReport(True, "degree")

    # chain lengths of [bottom, x], pushed up the covers; every lower cover
    # of x has lower degree, so sorts first and is read, complete, before x
    lengths: dict[Monomial, set[int]] = {L.bottom: {0}}
    entries = 0
    for x in L.sorted_elements:
        ls = lengths.pop(x)
        entries += len(ls)
        if entries > CHAIN_TABLE_BUDGET:
            raise ChainBudgetExceeded(
                f"chain-length table exceeded budget {CHAIN_TABLE_BUDGET}"
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


def _chain_count(L: LcmLattice, lo: Monomial, hi: Monomial) -> int:
    """The number of maximal chains of [lo, hi], in one pass up the covers:
    canonical order lists every element after those below it."""
    count = dict.fromkeys(L.interval(lo, hi), 0)  # validates endpoints
    count[lo] = 1
    for e, k in count.items():
        for c in L.covers[e]:
            if c in count:
                count[c] += k
    return count[hi]


def maximal_chains(
    L: LcmLattice, lo: Monomial, hi: Monomial
) -> list[tuple[Monomial, ...]]:
    """All maximal chains of [lo, hi], each listed bottom-up; an interval
    with more than CHAIN_BUDGET of them is rejected before any is listed."""
    if _chain_count(L, lo, hi) > CHAIN_BUDGET:
        raise ChainBudgetExceeded(f"more than {CHAIN_BUDGET} maximal chains")
    out: list[tuple[Monomial, ...]] = []
    stack: list[Monomial] = [lo]

    def walk(cur: Monomial) -> None:
        if cur == hi:
            out.append(tuple(stack))
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


def natural_label_check(L: LcmLattice, lo: Monomial, hi: Monomial) -> LabelChainReport:
    """Label every cover by the largest variable entering, list the chains."""
    chains = maximal_chains(L, lo, hi)
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
