"""The lcm lattice of a monomial ideal.

Elements are the unit (bottom) together with the lcms of all nonempty sets
of minimal generators, ordered by divisibility.  One rule decides
membership: a tuple b is an element exactly when, for every v with
b_v > 0, some generator dividing x^b has exponent b_v in v; then b is the
lcm of the generators dividing it (the bottom passes vacuously).  So the
lattice is enumerated, not closed under joins: one walk, `_walk`, builds
candidates depth-first over the variables, each exponent one the
generators have in that variable, carrying live, the bitmask of generators
dividing the prefix (ANDs of the "exponent <= k" masks).  A branch is
pruned when none of live has exponent exactly e in v; each leaf takes the
membership rule, and each element b goes with its live to a consumer.
There are three: `build_lattice` sorts them, the Koszul oracle decides
each on the spot, and the resolution checks walk the masks of a complex's
cell labels instead, lcms of its vertex labels, which give the same
elements, each with the cells whose label divides it.  `in` then finds an
element by bisection in the sorted exponent tuples.  Both input kinds
take this path: a BorelIdeal contributes its expanded generators, which
go through the same checks and minimalization as a generator list.  The
lattice is its canonically sorted exponent tuples plus those masks,
computed once; Monomials appear only in what the API returns.

Covers come from the same masks, with no joins.  For b above the bottom and
each v with b_v > 0, let live_v be the atoms dividing x^(b - e_v) and c_v
their lcm, the bottom if there are none: its exponent in w is the least k
with live_v inside the "exponent <= k" mask of w.  Every element c < b
divides x^(b - e_v) for some v, so the atoms below c lie in live_v and c
divides c_v.  The lower covers of b are therefore the divisibility-maximal
c_v, at most n of them, and c_u divides c_v exactly when live_u is a subset
of live_v.  The rule holds for any monomial ideal.  `_lower_covers` applies
it to one element; `lower_covers` maps every element above the bottom to
its lower covers, for rankedness and `lattice --out`.

Intervals stay local: [lo, hi] is walked down from hi through
`_lower_covers`, keeping the covers lo divides.  Every element of the
interval lies on a cover path down from hi, so the walk reaches exactly the
interval, and the chain count, the chain listing and the labels read only
the covers it found.

Rankedness: with equigenerated atoms the degree criterion is tried first,
every cover above the bottom raises degree by exactly one.  It is
sufficient for rankedness, since degree then grades every interval, but not
necessary: the lattice of (a^2, b^2) is ranked though a^2 < a^2*b^2 is a
cover of degree two.  So it only answers yes; every other lattice goes to
the general definition: all maximal chains of every interval have equal
length.  Maximal chains are cover paths, so one pass in canonical
(degree-first) order, each x reading its lower covers, which sort earlier,
carries the set of chain lengths of every [bottom, x].  Checking those
intervals alone is exact: if each has a single length rho(x), then
rho(c) = rho(m) + 1 for every cover m < c, so rho is a rank function and
every chain of [m, n] has length rho(n) - rho(m).  The witness is the
first x with several lengths, the bottom being the canonically first lower
end.  CHAIN_TABLE_BUDGET bounds that table and CHAIN_BUDGET the maximal
chains listed; past either, the CLI exits 2.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from operator import and_, getitem, gt, le, lt

from .borel import BorelIdeal
from .monomials import (
    Monomial,
    _below_masks,
    _exps_key,
    _Value,
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


def _lower_covers(below, b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The elements the element b covers, by the module docstring's rule."""
    div = reduce(and_, map(getitem, below, b))
    lives = {div & ms[e - 1] for ms, e in zip(below, b) if e}
    covs = []
    for live in lives:
        if any(other != live and live | other == other for other in lives):
            continue
        c = []
        for ms, k in zip(below, b):
            while k and live & ms[k - 1] == live:
                k -= 1
            c.append(k)
        covs.append(tuple(c))
    return tuple(covs)


class LcmLattice(_Value):
    # exps canonically sorted, the bottom first; below: the atoms' "exponent
    # <= k" masks.  No __slots__: the cached lower_covers needs a __dict__.
    _fields = ("n", "atoms", "exps", "below")

    def __init__(self, n: int, atoms: tuple, exps: tuple, below: tuple) -> None:
        self._init(n, atoms, exps, below)

    @property
    def bottom(self) -> Monomial:
        return unit(self.n)

    @property
    def top(self) -> Monomial:
        return Monomial(self.exps[-1])

    def __contains__(self, m: Monomial) -> bool:
        i = bisect_left(self.exps, _exps_key(m.exps), key=_exps_key)
        return m.n == self.n and self.exps[i : i + 1] == (m.exps,)

    def __len__(self) -> int:
        return len(self.exps)

    @cached_property
    def lower_covers(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Map b -> the elements b covers, for every b above the bottom."""
        return {b: _lower_covers(self.below, b) for b in self.exps[1:]}

    def interval(self, lo: Monomial, hi: Monomial) -> dict:
        """Map each element of [lo, hi], canonically ordered, to its lower
        covers inside [lo, hi], found by a walk down from hi."""
        if lo not in self or hi not in self:
            raise ValueError("interval endpoints must be lattice elements")
        if not lo.divides(hi):
            raise ValueError(f"{lo} does not divide {hi}")
        down, todo = {}, [hi.exps]
        while todo:
            b = todo.pop()
            if b not in down:
                down[b] = tuple(
                    c for c in _lower_covers(self.below, b) if all(map(le, lo.exps, c))
                )
                todo.extend(down[b])
        return {b: down[b] for b in sorted(down, key=_exps_key)}


def _atoms(gens) -> tuple[tuple[Monomial, ...], tuple[tuple[int, ...], ...]]:
    """The minimal generators of an ideal (a BorelIdeal is accepted) and
    their "exponent <= k" masks below[v][k]."""
    gens = list(gens.expanded if isinstance(gens, BorelIdeal) else gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("ambient mismatch")
    if any(g.is_unit for g in gens):
        raise ValueError("unit generator makes the whole ring")
    atoms = minimal_under_divisibility(gens)
    return atoms, tuple(map(tuple, _below_masks([a.exps for a in atoms], n)))


def _walk(below, visit) -> None:
    """Call visit(b, live) on every element b above the bottom, in
    lexicographic order, with live the mask of the rows of below (atoms, or
    cells) dividing x^b."""
    # per variable v, (e, the atoms with exponent <= e in v, those with >= e)
    # for each exponent e some atom has in v; last is the last variable's
    *inner, last = [
        [(e, m, ~low) for e, (m, low) in enumerate(zip(ms, (0, *ms))) if m != low]
        for ms in below
    ]

    def extend(prefix: tuple[int, ...], live: int, exact: tuple[int, ...]) -> None:
        # exact: the atoms reaching each exponent of the prefix, as some of
        # live must; sub grows with e, so once it does it keeps doing so
        if len(prefix) == len(inner):
            reach = False
            for e, le_e, ge_e in last:
                sub = live & le_e
                reach = reach or all(sub & x for x in exact)
                if reach and sub & ge_e:
                    visit(prefix + (e,), sub)
            return
        for e, le_e, ge_e in inner[len(prefix)]:
            sub = live & le_e
            if sub & ge_e:
                extend(prefix + (e,), sub, exact + (ge_e,))

    extend((), -1, ())


def build_lattice(gens) -> LcmLattice:
    """Lattice of an ideal given by generators (a BorelIdeal is accepted)."""
    atoms, below = _atoms(gens)
    found: dict[tuple[int, ...], int] = {}
    _walk(below, found.__setitem__)
    # the bottom is the only degree-0 element, so it sorts first
    exps = sorted([(0,) * len(below), *found], key=_exps_key)
    return LcmLattice(atoms[0].n, atoms, tuple(exps), below)


class RankedReport(_Value):
    # criterion: "degree" (equigenerated, unit cover steps) or "chains"
    __slots__ = _fields = ("ranked", "criterion", "witness_cover", "witness_interval")

    def __init__(self, ranked, criterion, witness_cover=None, witness_interval=None):
        self._init(ranked, criterion, witness_cover, witness_interval)

    def __bool__(self) -> bool:
        return self.ranked


def is_ranked(L: LcmLattice) -> RankedReport:
    """Decide rankedness; see the module docstring for the two criteria."""
    lower = L.lower_covers
    if len({a.degree for a in L.atoms}) == 1 and all(
        sum(c) == sum(b) - 1 for b, cs in lower.items() for c in cs if any(c)
    ):
        return RankedReport(True, "degree")

    # chain lengths of [bottom, x]; every lower cover of x has lower degree,
    # so sorts first and is read, complete, before x
    lengths: dict[tuple[int, ...], set[int]] = {}
    entries = 0
    for x in L.exps:
        ls = {l + 1 for c in lower.get(x, ()) for l in lengths[c]} or {0}
        lengths[x] = ls
        entries += len(ls)
        if entries > CHAIN_TABLE_BUDGET:
            raise ChainBudgetExceeded(
                f"chain-length table exceeded budget {CHAIN_TABLE_BUDGET}"
            )
        if len(ls) > 1:
            break
    else:
        return RankedReport(True, "chains")
    # prefer a jump cover away from the bottom; one with jump >= 2 always
    # exists on any shorter-than-degree chain of an unranked interval
    jumps = [(c, b) for b, cs in lower.items() for c in cs if sum(b) > sum(c) + 1]
    witness = min(
        jumps,
        key=lambda p: (not any(p[0]), _exps_key(p[0]), _exps_key(p[1])),
        default=None,
    )
    return RankedReport(
        False,
        "chains",
        witness_cover=None if witness is None else tuple(map(Monomial, witness)),
        witness_interval=(L.bottom, Monomial(x), tuple(sorted(ls))),
    )


def maximal_chains(
    L: LcmLattice, lo: Monomial, hi: Monomial
) -> list[tuple[Monomial, ...]]:
    """All maximal chains of [lo, hi], each listed bottom-up, in
    lexicographic canonical order; an interval with more than CHAIN_BUDGET
    of them is rejected before any is listed."""
    down = L.interval(lo, hi)
    # canonical order lists every element after those it covers, hi last;
    # lo alone covers nothing inside
    count: dict[tuple[int, ...], int] = {}
    for b, cs in down.items():
        count[b] = sum(count[c] for c in cs) or 1
    if count[hi.exps] > CHAIN_BUDGET:
        raise ChainBudgetExceeded(f"more than {CHAIN_BUDGET} maximal chains")
    chains: list[tuple[tuple[int, ...], ...]] = []

    def walk(chain: tuple[tuple[int, ...], ...]) -> None:
        if not down[chain[0]]:
            chains.append(chain)
        for c in down[chain[0]]:
            walk((c, *chain))

    walk((hi.exps,))
    rank = {b: i for i, b in enumerate(down)}
    chains.sort(key=lambda chain: [rank[b] for b in chain])
    return [tuple(map(Monomial, chain)) for chain in chains]


class LabelChainReport(_Value):
    """Maximal chains of an interval with their edge labels, bottom-up.

    Each cover step m -> c is labeled by max_index(c / m).  A chain whose
    labels strictly increase bottom-up is the same walk as one whose labels
    strictly decrease read from the top downward.  increasing and
    decreasing are indices into chains.
    """

    __slots__ = _fields = ("lo", "hi", "chains", "labels", "increasing", "decreasing")

    def __init__(self, lo, hi, chains, labels, increasing=(), decreasing=()) -> None:
        self._init(lo, hi, chains, labels, increasing, decreasing)


def natural_label_check(L: LcmLattice, lo: Monomial, hi: Monomial) -> LabelChainReport:
    """Label every cover by the largest variable entering, list the chains."""
    chains = maximal_chains(L, lo, hi)
    labels = tuple(
        tuple(
            max(v for v, (x, y) in enumerate(zip(a.exps, b.exps), 1) if y > x)
            for a, b in zip(chain, chain[1:])
        )
        for chain in chains
    )
    increasing = tuple(i for i, ls in enumerate(labels) if all(map(lt, ls, ls[1:])))
    decreasing = tuple(i for i, ls in enumerate(labels) if all(map(gt, ls, ls[1:])))
    return LabelChainReport(lo, hi, tuple(chains), labels, increasing, decreasing)
