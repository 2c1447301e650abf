"""Borel fixed ideals generated in one degree.

A Borel fixed (strongly stable) monomial ideal is closed under the exchange
moves x_t -> x_s with s < t.  For a single generator m the degree-d piece of
the smallest such ideal containing m has an exact description by suffix
sums: c belongs to it iff sum_{j>=i} c_j <= sum_{j>=i} m_j for every i.
That description drives minimalization and the closed-form intersection of
principal pieces via the componentwise suffix minimum, and expansion
enumerates exactly the exponent tuples under those bounds, never filtering
all monomials of degree d.  Closure and Borel generators of an explicit set
are read off its exponent tuples with adjacent moves x_{i+1} -> x_i alone:
every move x_t -> x_s is a chain of them.
"""
from __future__ import annotations

from math import comb

from .monomials import (
    Monomial,
    VarRange,
    _Value,
    canonical_key,
    minimal_under_divisibility,
    parse_monomial,
    rlex_key,
    suffix_sums,
)

__all__ = [
    "BorelIdeal",
    "in_principal",
    "expand_principal",
    "is_borel_fixed",
    "borel_minimalize",
    "min_monomial",
    "intersect_borel",
    "principal_decomposition",
    "eliahou_kervaire_betti",
    "borel_generators",
    "parse_ideal_spec",
]


def in_principal(c: Monomial, m: Monomial) -> bool:
    """True iff c lies in the Borel ideal generated by m (equal degrees only)."""
    if c.n != m.n:
        raise ValueError("ambient mismatch")
    if c.degree != m.degree:
        raise ValueError("membership test needs equal degrees")
    return all(x <= y for x, y in zip(suffix_sums(c), suffix_sums(m)))


def _expand_principal_set(m: Monomial) -> frozenset[Monomial]:
    # choose c_n, ..., c_2 in turn, each up to s_i(m) less the exponents
    # already chosen to its right; c_1 takes what is left of the degree
    bound = suffix_sums(m)
    tails = [((), 0)]
    for b in reversed(bound[1:]):
        tails = [((c,) + t, used + c) for t, used in tails for c in range(b - used + 1)]
    return frozenset(Monomial((bound[0] - used,) + t) for t, used in tails)


def _step(e: tuple[int, ...], i: int, u: int) -> tuple[int, ...]:
    """e with u units moved from index i + 1 to index i (u = -1 moves one back)."""
    return e[:i] + (e[i] + u, e[i + 1] - u) + e[i + 2 :]


class BorelIdeal(_Value):
    """A Borel fixed ideal generated in one degree d.

    borel_gens lists the Borel-minimal generators, strictly rlex-descending;
    expanded is the full minimal monomial generating set G(I).
    """

    __slots__ = _fields = ("n", "d", "borel_gens", "expanded")

    def __init__(self, n: int, d: int, borel_gens: tuple, expanded: frozenset) -> None:
        self._init(n, d, borel_gens, expanded)

    @classmethod
    def from_borel_gens(cls, n: int, gens) -> "BorelIdeal":
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        if any(g.n != n for g in gens):
            raise ValueError("ambient mismatch")
        d = gens[0].degree
        if d < 1:
            raise ValueError("generators must have degree at least 1")
        if any(g.degree != d for g in gens):
            raise ValueError("generators must all have the same degree")
        mins = borel_minimalize(gens)
        expanded = frozenset().union(*(_expand_principal_set(g) for g in mins))
        return cls(n=n, d=d, borel_gens=tuple(mins), expanded=expanded)

    @classmethod
    def from_expanded(cls, n: int, gens) -> "BorelIdeal":
        """Build from an explicit generating set, which must be exchange-closed."""
        gens = frozenset(gens)
        if not is_borel_fixed(gens):
            raise ValueError("generating set is not closed under exchange moves")
        # in a closed set, g lies in another element's expansion iff an
        # inverse move x_s -> x_t (s < t) of g stays in it, and then so does
        # the adjacent one x_s -> x_{s+1}
        pool = {g.exps for g in gens}
        tops = [
            Monomial(e)
            for e in pool
            if not any(e[s] and _step(e, s, -1) in pool for s in range(len(e) - 1))
        ]
        ideal = cls.from_borel_gens(n, tops)
        if ideal.expanded != gens:
            raise ValueError("Borel expansion does not reproduce the generating set")
        return ideal

    def __contains__(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.expanded)

    def __str__(self) -> str:
        return "<" + ", ".join(str(g) for g in self.borel_gens) + ">"


def expand_principal(m: Monomial) -> BorelIdeal:
    """The smallest Borel fixed ideal containing m."""
    if m.is_unit:
        raise ValueError("expansion of the unit monomial is undefined")
    return BorelIdeal.from_borel_gens(m.n, [m])


def is_borel_fixed(gens) -> bool:
    """True iff the equal-degree monomial set is closed under exchange moves."""
    pool = {g.exps for g in gens}
    if not pool:
        raise ValueError("need at least one generator")
    if len({sum(e) for e in pool}) > 1:
        raise ValueError("closure test needs equal degrees")
    return all(
        _step(e, i, 1) in pool for e in pool for i in range(len(e) - 1) if e[i + 1]
    )


def borel_minimalize(ms) -> list[Monomial]:
    """Drop generators lying in another generator's Borel expansion.

    Input monomials must share one degree; the result is strictly
    rlex-descending.
    """
    uniq = set(ms)
    if not uniq:
        raise ValueError("need at least one generator")
    if len({m.degree for m in uniq}) > 1:
        raise ValueError("minimalization needs equal degrees")
    keep = [
        m for m in uniq if not any(g != m and in_principal(m, g) for g in uniq)
    ]
    return sorted(keep, key=rlex_key)


def min_monomial(m1: Monomial, m2: Monomial) -> Monomial:
    """Componentwise suffix minimum MIN(m1, m2).

    Built right to left: each exponent takes as much of
    min(suffix(m1), suffix(m2)) as the exponents to its right left over.
    The Borel expansion of the result is exactly the intersection of the
    two principal expansions.
    """
    if m1.n != m2.n:
        raise ValueError("ambient mismatch")
    if m1.degree != m2.degree:
        raise ValueError("suffix minimum needs equal degrees")
    s1, s2 = suffix_sums(m1), suffix_sums(m2)
    n = m1.n
    mu = [0] * n
    tail = 0
    for i in range(n - 1, -1, -1):
        mu[i] = min(s1[i], s2[i]) - tail
        tail += mu[i]
    if any(e < 0 for e in mu) or sum(mu) != m1.degree:
        raise ValueError(f"suffix minimum of {m1} and {m2} is not a monomial")
    return Monomial(tuple(mu))


def intersect_borel(m: Monomial, J: BorelIdeal) -> BorelIdeal:
    """The intersection of the principal Borel ideal of m with J.

    Equals the Borel ideal generated by the suffix minima of m against
    each Borel generator of J, so it has at most as many Borel generators
    as J.
    """
    if m.n != J.n or m.degree != J.d:
        raise ValueError("ambient or degree mismatch")
    return BorelIdeal.from_borel_gens(J.n, [min_monomial(m, g) for g in J.borel_gens])


def principal_decomposition(m: Monomial) -> list[tuple[Monomial, VarRange]]:
    """Split a principal Borel ideal into monomial-times-power summands.

    For m = x_{l1}^{d1} ... x_{ls}^{ds} with s > 1 and exponent tuple e,
    the ideal is the sum over k = 1 .. l_{s-1} of <N_k> * (x_k, ..., x_{ls})^{ds},
    where <N_k> is the principal Borel ideal of N_k, which keeps e below
    x_k and moves the rest of m / x_{ls}^{ds} onto x_k:
    N_k = e[:k-1] + (sum(e[k-1 : l_s-1]),) + zeros.  Returns the pairs
    (N_k, k..l_s).  For l_{s-1} = 1 this is the single summand
    x1^{d1} * (x1, ..., x_{l2})^{d2}.  A pure power or the unit (s < 2) is
    rejected.
    """
    e = m.exps
    support = [i + 1 for i, x in enumerate(e) if x]
    if len(support) < 2:
        raise ValueError("decomposition needs at least two support variables")
    top = support[-1]
    out = []
    for k in range(1, support[-2] + 1):
        nk = e[: k - 1] + (sum(e[k - 1 : top - 1]),) + (0,) * (m.n - k)
        out.append((Monomial(nk), VarRange(k, top)))
    return out


def eliahou_kervaire_betti(I: BorelIdeal) -> tuple[int, ...]:
    """Total Betti numbers of the classical stable-ideal resolution.

    beta_i = sum over generators m of C(max_index(m) - 1, i); used as an
    independent cross-check against cellular and Koszul counts.
    """
    top = max(g.max_index() for g in I.expanded)
    betti = [0] * top
    for g in I.expanded:
        mi = g.max_index()
        for i in range(mi):
            betti[i] += comb(mi - 1, i)
    return tuple(betti)


def borel_generators(n: int, ms) -> tuple[Monomial, ...]:
    """Minimal generators of the smallest Borel fixed ideal containing ms.

    The inputs may have mixed degrees: each is expanded at its own degree
    and the union is minimalized under divisibility.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("need at least one generator")
    if any(m.n != n for m in ms):
        raise ValueError("ambient mismatch")
    if any(m.is_unit for m in ms):
        raise ValueError("unit generator makes the whole ring")
    everything: set[Monomial] = set()
    for m in ms:
        everything.update(_expand_principal_set(m))
    return minimal_under_divisibility(everything)


def parse_ideal_spec(text: str, default_n: int | None = None):
    """Parse an ideal spec string.

    Segments separated by ';' or newlines: at most one 'vars: n' plus one
    of 'borel: m1, m2, ...' (generators in the Borel sense) or
    'mono: m1, m2, ...' (explicit generating set, checked for closure).
    Returns (n, kind, monomials) with kind in {'borel', 'mono'}.
    """
    n = default_n
    kind = gens_text = None
    has_vars = False
    for seg in (p.strip() for p in text.replace("\n", ";").split(";")):
        if not seg:
            continue
        head, sep, body = seg.partition(":")
        if not sep:
            raise ValueError(f"bad ideal spec segment {seg!r}")
        head = head.strip().lower()
        if head == "vars":
            if has_vars:
                raise ValueError("ideal spec has more than one vars segment")
            has_vars = True
            try:
                n = int(body)
            except ValueError:
                raise ValueError(f"bad vars segment {seg!r}: not an integer") from None
        elif head in ("borel", "mono"):
            if kind is not None:
                raise ValueError("ideal spec has more than one generator list")
            kind, gens_text = head, body
        else:
            raise ValueError(f"unknown ideal spec key {head!r}")
    if kind is None:
        raise ValueError("ideal spec has no generator list")
    if n is None:
        raise ValueError("ideal spec does not fix the number of variables")
    gens = tuple(
        parse_monomial(p, n) for p in gens_text.split(",") if p.strip()
    )
    if not gens:
        raise ValueError("ideal spec has an empty generator list")
    return n, kind, gens
