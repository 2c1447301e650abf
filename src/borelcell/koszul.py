"""Brute-force oracles: upper Koszul simplicial complexes and intersections.

These are deliberately independent of the polytopal builders.  The graded
Betti number beta_{i,b} of a monomial ideal equals the reduced homology
dimension H_{i-1} of the upper Koszul complex at b, the simplicial complex
of squarefree monomials t with x^b / x^t in the ideal.  Intersections are
checked against the pairwise-lcm description.  Ranks go through the same
exact kernel as the resolution checks, on independently built matrices.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import le

from .exact import Field
from .lattice import build_lattice
from .monomials import Monomial, canonical_key, minimal_under_divisibility

__all__ = [
    "SimplicialComplex",
    "simplicial_homology",
    "upper_koszul",
    "betti_via_koszul",
    "brute_intersection",
]


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces as frozensets of 1-based vertex indices; downward closed.

    The void complex (no faces at all) is distinct from the complex whose
    only face is empty: the former has no homology, the latter has
    H_{-1} = k.
    """

    faces: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        for f in self.faces:
            for v in f:
                if f - {v} not in self.faces:
                    raise ValueError("face family is not downward closed")

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def dim(self) -> int:
        return max((len(f) - 1 for f in self.faces), default=-1)


def simplicial_homology(K: SimplicialComplex, fld: Field) -> tuple[int, ...]:
    """Reduced homology dimensions (H_{-1}, ..., H_dim); () for the void."""
    if K.is_void:
        return ()
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(K.dim + 2)]
    for f in K.faces:
        by_dim[len(f)].append(tuple(sorted(f)))
    for bucket in by_dim:
        bucket.sort()
    pos = [{f: i for i, f in enumerate(bucket)} for bucket in by_dim]
    f_counts = [len(b) for b in by_dim]
    ranks = [0]
    for d in range(1, K.dim + 2):
        mat = [[0] * f_counts[d] for _ in range(f_counts[d - 1])]
        for j, face in enumerate(by_dim[d]):
            for i in range(len(face)):
                sub = face[:i] + face[i + 1 :]
                mat[pos[d - 1][sub]][j] = (-1) ** i
        ranks.append(fld.rank(mat))
    ranks.append(0)
    dims = []
    for d in range(len(f_counts)):
        dims.append(f_counts[d] - ranks[d] - ranks[d + 1])
    return tuple(dims)


def upper_koszul(gens, b: Monomial) -> SimplicialComplex:
    """Squarefree t inside supp(b) with x^b / x^t in the ideal of gens."""
    gens = list(gens)
    n = b.n
    if any(g.n != n for g in gens):
        raise ValueError("ambient mismatch")
    # a generator divides x^b / x^t only if it divides x^b
    below = [g.exps for g in gens if all(map(le, g.exps, b.exps))]
    support = [i for i in range(1, n + 1) if b.exps[i - 1] > 0]
    faces = set()
    for k in range(len(support) + 1):
        for combo in itertools.combinations(support, k):
            q = list(b.exps)
            for i in combo:
                q[i - 1] -= 1
            if any(all(map(le, g, q)) for g in below):
                faces.add(frozenset(combo))
    return SimplicialComplex(frozenset(faces))


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
    for b in degrees:
        dims = simplicial_homology(upper_koszul(gens, b), fld)
        for pos_in_tuple, h in enumerate(dims):
            if h:
                table[(pos_in_tuple, b)] = h  # beta_{i,b} = H_{i-1}, i = pos
    return table


def brute_intersection(A, B) -> tuple[Monomial, ...]:
    """Minimal generators of the intersection of two monomial ideals."""
    A, B = list(A), list(B)
    if not A or not B:
        raise ValueError("need generators on both sides")
    from .monomials import lcm

    return minimal_under_divisibility(lcm(a, b) for a in A for b in B)
