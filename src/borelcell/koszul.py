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
most lattice degrees, and they need no face set and no rank.  The rest
enumerate the submasks of their S_g and go through the same exact kernel as
the resolution checks, on independently built matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_, or_

from .exact import Field
from .lattice import build_lattice
from .monomials import Monomial, canonical_key

__all__ = [
    "SimplicialComplex",
    "simplicial_homology",
    "upper_koszul",
    "betti_via_koszul",
]


def _bits(f: int) -> list[int]:
    """Positions of the set bits, ascending."""
    return [i for i in range(f.bit_length()) if f >> i & 1]


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces as bitmasks, bit i - 1 standing for vertex i; downward closed.

    The void complex (no faces at all) is distinct from the complex whose
    only face is empty: the former has no homology, the latter has
    H_{-1} = k.
    """

    masks: frozenset[int]

    def __post_init__(self) -> None:
        for f in self.masks:
            if type(f) is not int or f < 0:
                raise ValueError(f"a face must be a non-negative bitmask: {f!r}")
            rest = f
            while rest:
                low = rest & -rest
                if f ^ low not in self.masks:
                    raise ValueError("face family is not downward closed")
                rest ^= low

    @classmethod
    def from_faces(cls, faces) -> "SimplicialComplex":
        """From an iterable of vertex sets, vertices numbered from 1."""
        faces = [set(f) for f in faces]
        if any(type(v) is not int or v < 1 for f in faces for v in f):
            raise ValueError("vertices must be integers >= 1")
        return cls(frozenset(sum(1 << (v - 1) for v in f) for f in faces))

    @property
    def faces(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(i + 1 for i in _bits(f)) for f in self.masks)

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


def _generator_masks(gens, n: int) -> list[list[int]]:
    """below[v][k]: the generators with exponent at most k in variable v,
    for k up to the largest such exponent."""
    exps = [g.exps for g in gens]
    if any(len(e) != n for e in exps):
        raise ValueError("ambient mismatch")
    below = []
    for v in range(n):
        masks = [0] * (max((e[v] for e in exps), default=0) + 1)
        for j, e in enumerate(exps):
            masks[e[v]] |= 1 << j
        below.append(list(accumulate(masks, or_)))
    return below


def _tops(below: list[list[int]], bx: tuple[int, ...]) -> list[int]:
    """The distinct S_g of the generators dividing x^b: [] when K^b is void,
    just [U] when K^b is the full simplex on U (module docstring)."""
    if len(bx) != len(below):
        raise ValueError("ambient mismatch")
    live = reduce(and_, [masks[min(e, len(masks) - 1)] for masks, e in zip(below, bx)])
    if not live:
        return []
    strict = [
        live & masks[min(e, len(masks)) - 1] if e else 0
        for masks, e in zip(below, bx)
    ]
    union = sum(1 << v for v, s in enumerate(strict) if s)
    if reduce(and_, filter(None, strict), live):
        return [union]
    return list(
        {sum(1 << v for v, s in enumerate(strict) if s >> g & 1) for g in _bits(live)}
    )


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


def upper_koszul(gens, b: Monomial) -> SimplicialComplex:
    """Squarefree t with x^b / x^t in the ideal of gens, as a union of simplices."""
    return _union_of_simplices(_tops(_generator_masks(gens, b.n), b.exps))


def betti_via_koszul(
    gens, degrees=None, fld: Field = Field.rationals()
) -> dict[tuple[int, Monomial], int]:
    """Graded Betti numbers from upper Koszul homology.

    degrees defaults to the lcm lattice above the bottom, which carries all
    of the support; any superset gives the same nonzero table.
    """
    gens = list(gens)
    if degrees is None:
        # the unit is the only degree-0 element, so it sorts first
        degrees = build_lattice(gens).sorted_elements[1:]
    else:
        degrees = sorted(degrees, key=canonical_key)
    table: dict[tuple[int, Monomial], int] = {}
    if not gens:
        return table  # every K^b is void
    below = _generator_masks(gens, gens[0].n)
    for b in degrees:
        tops = _tops(below, b.exps)
        if len(tops) == 1:
            dims = _full_simplex_homology(tops[0])
        else:
            dims = simplicial_homology(_union_of_simplices(tops), fld)
        for pos_in_tuple, h in enumerate(dims):
            if h:
                table[(pos_in_tuple, b)] = h  # beta_{i,b} = H_{i-1}, i = pos
    return table
