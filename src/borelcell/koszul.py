"""Brute-force oracle: upper Koszul simplicial complexes.

These are deliberately independent of the polytopal builders.  The graded
Betti number beta_{i,b} of a monomial ideal equals the reduced homology
dimension H_{i-1} of the upper Koszul complex K^b, the simplicial complex
of squarefree monomials t with x^b / x^t in the ideal.  A generator g
divides x^b / x^t exactly when g | x^b and t lies in S_g = {v : g_v < b_v},
so K^b is the union of the full simplices on the S_g; faces are bitmasks.

Each degree is decided on generator bitmasks built once: below[v][k] holds
the generators with exponent at most k in variable v.  Their AND at k = b_v
is live, the g dividing x^b; strict[v] = live & below[v][b_v - 1] holds the
g with v in S_g, and U = {v : strict[v] != 0} is the union of the faces.
K^b is the full simplex on U, a cone or {empty face}, exactly when some S_g
is U: when live stays nonzero ANDed with each nonzero strict[v].  That is
most lattice degrees.  Otherwise splitting live by each nonzero strict[v]
gives the distinct S_g, one per part (at most 2^|U| parts).  If every
U - {v} is one, K^b is the boundary of the simplex on U, with H_{|U|-2} = k
alone.  Neither needs a face set or a rank.  The rest enumerate the submasks
of their S_g and go through the resolution checks' exact kernel, on
independently built matrices.  betti_via_koszul decides each lcm-lattice
element as lattice.py's walk reaches it, from the live the walk carried;
the walk's other consumers are build_lattice and the resolution checks.
upper_koszul, the one-degree form, ANDs its own live.
"""
from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .exact import Field
from .lattice import _atoms, _walk
from .monomials import Monomial, _below_masks, _bits, _exps_key, _Value

__all__ = [
    "SimplicialComplex",
    "simplicial_homology",
    "upper_koszul",
    "betti_via_koszul",
]


class SimplicialComplex(_Value):
    """Faces as bitmasks, bit i - 1 standing for vertex i; downward closed.

    The void complex (no faces at all) is distinct from the complex whose
    only face is empty: the former has no homology, the latter has
    H_{-1} = k.
    """

    __slots__ = _fields = ("masks",)

    def __init__(self, masks: frozenset[int]) -> None:
        for f in masks:
            if type(f) is not int or f < 0:
                raise ValueError(f"a face must be a non-negative bitmask: {f!r}")
            if any(f ^ (1 << i) not in masks for i in _bits(f)):
                raise ValueError("face family is not downward closed")
        self._init(masks)

    @property
    def is_void(self) -> bool:
        return not self.masks

    @property
    def dim(self) -> int:
        return max((f.bit_count() - 1 for f in self.masks), default=-1)


def _full_simplex_homology(union: int) -> tuple[int, ...]:
    """A cone on k >= 1 vertices is acyclic; {empty face} has H_{-1} = k."""
    return (0,) * (union.bit_count() + 1) if union else (1,)


def simplicial_homology(K: SimplicialComplex, fld: Field) -> tuple[int, ...]:
    """Reduced homology dimensions (H_{-1}, ..., H_dim); () for the void."""
    if K.is_void:
        return ()
    union = reduce(or_, K.masks)
    if union in K.masks:  # a full simplex: a cone, or {empty face}
        return _full_simplex_homology(union)
    by_dim: list[list[int]] = [[] for _ in range(K.dim + 2)]
    for f in sorted(K.masks):
        by_dim[f.bit_count()].append(f)
    pos = [{f: i for i, f in enumerate(bucket)} for bucket in by_dim]
    ranks = [0]
    for d in range(1, len(by_dim)):
        mat = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, face in enumerate(by_dim[d]):
            for k, i in enumerate(_bits(face)):
                mat[pos[d - 1][face ^ (1 << i)]][j] = (-1) ** k
        ranks.append(fld.rank(mat))
    ranks.append(0)
    return tuple(len(b) - ranks[d] - ranks[d + 1] for d, b in enumerate(by_dim))


def _tops(below, b: tuple[int, ...], live: int) -> list[int]:
    """The distinct S_g of the generators in live, those dividing x^b: []
    when K^b is void, just [U] when K^b is the full simplex on U, else one
    per part of live split by each nonzero strict[v] (module docstring)."""
    if not live:
        return []
    union, common, strict = 0, live, []
    for v, e in enumerate(b):
        if e and (s := live & below[v][e - 1]):
            union |= 1 << v
            common &= s
            strict.append((1 << v, s))
    if common:
        return [union]
    parts = [(live, 0)]  # (generators, the S_g they share)
    for bit, s in strict:
        parts = [
            p for m, top in parts for p in ((m & s, top | bit), (m & ~s, top)) if p[0]
        ]
    return [top for _, top in parts]


def _union_of_simplices(tops) -> SimplicialComplex:
    faces = set()
    for top in tops:
        sub = top
        while True:  # every submask of top, from the top down
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    return SimplicialComplex(frozenset(faces))


def _at(below, b: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """b capped at its masks' lengths, which keeps every S_g, and live."""
    if len(b) != len(below):
        raise ValueError("ambient mismatch")
    c = tuple(map(min, b, map(len, below)))
    return c, reduce(and_, [ms[min(e, len(ms) - 1)] for ms, e in zip(below, c)])


def upper_koszul(gens, b: Monomial) -> SimplicialComplex:
    """Squarefree t with x^b / x^t in the ideal of gens, as a union of simplices."""
    below = _below_masks([g.exps for g in gens], b.n)
    return _union_of_simplices(_tops(below, *_at(below, b.exps)))


def betti_via_koszul(gens, fld: Field = Field()) -> dict[tuple[int, Monomial], int]:
    """Graded Betti numbers from upper Koszul homology.

    Every lcm-lattice element above the bottom (together they carry all of
    the support) is decided as the lattice walk reaches it.
    """
    table: dict[tuple[int, Monomial], int] = {}

    def decide(b: tuple[int, ...], live: int) -> None:
        tops = _tops(below, b, live)
        union = reduce(or_, tops, 0)
        if len(tops) == 1:
            dims = _full_simplex_homology(union)
        elif tops and all(union ^ (1 << v) in tops for v in _bits(union)):
            dims = (0,) * (union.bit_count() - 1) + (1,)
        else:
            dims = simplicial_homology(_union_of_simplices(tops), fld)
        if any(dims):  # beta_{i,b} = H_{i-1}, i = the position in dims
            mb = Monomial(b)
            table.update({(i, mb): h for i, h in enumerate(dims) if h})

    below = _atoms(list(gens))[1]
    _walk(below, decide)
    # stable: the degrees in canonical order, as the lattice lists them
    return dict(sorted(table.items(), key=lambda hit: _exps_key(hit[0][1].exps)))
