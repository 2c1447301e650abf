"""Labeled regular cell complexes stored as face posets.

Every cell is identified by its set of vertex labels (distinct monomials),
so a complex is a map {vertex-label set -> dimension} and the face relation
is vertex-set containment.  That identification is exactly right for
complexes of convex polytopes in which each cell is the convex hull of its
vertices: a cell whose vertex set sits inside another's is a face of it.

Cell labels are the lcm of the vertex labels.  Boundary orientation signs
are data: an import supplies one per (cell, facet) pair, while a built
complex leaves them to be derived by a breadth-first walk of each cell's
facet-ridge graph.  Either way one routine, `_finalize`, runs lazily once
per complex: it derives the facet relation, requires supplied signs to
cover exactly that relation, and checks every sign against every
codimension-two cancellation constraint:

    sign(c, f) * sign(f, r) + sign(c, f') * sign(f', r) == 0

whenever r is a ridge of c lying in the two facets f and f'.  Regularity is
enforced on the same walk through the diamond property: every ridge of a
cell lies in exactly two of its facets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .monomials import Monomial, canonical_key, lcm_many

__all__ = [
    "Cell",
    "LabeledComplex",
    "simplex",
    "product",
    "union",
    "scale_labels",
    "restrict",
    "spanned_subcomplex",
]

FaceKey = frozenset


@dataclass(frozen=True)
class Cell:
    """One cell of a finished complex, with oriented facet references."""

    id: int
    dim: int
    vertices: tuple[int, ...]
    label: Monomial
    facets: tuple[tuple[int, int], ...]


class LabeledComplex:
    """A monomial-labeled regular cell complex.

    faces maps vertex-label sets to dimensions; the optional signs map
    (cell key, facet key) pairs to +1/-1 and are derived when omitted.
    """

    def __init__(self, n: int, faces, signs=None) -> None:
        if n < 1:
            raise ValueError("ambient ring needs at least one variable")
        faces = dict(faces)
        vertices = set()
        for f, d in faces.items():
            if not isinstance(f, frozenset) or not f:
                raise ValueError("faces must be nonempty frozensets of monomials")
            if any(not isinstance(v, Monomial) or v.n != n for v in f):
                raise ValueError("face vertices must be monomials in the ambient ring")
            if not isinstance(d, int) or d < 0:
                raise ValueError("face dimensions must be non-negative integers")
            if (len(f) == 1) != (d == 0):
                raise ValueError("exactly the singleton faces have dimension 0")
            if d == 1 and len(f) != 2:
                raise ValueError("one-dimensional faces have exactly two vertices")
            if len(f) < d + 1:
                raise ValueError("a d-cell needs at least d+1 vertices")
            if d == 0:
                vertices.add(next(iter(f)))
        for f in faces:
            for v in f:
                if v not in vertices:
                    raise ValueError(f"vertex {v} of a face is not a 0-cell")
        self.n = n
        self._faces = faces
        self._signs = signs

    @property
    def faces(self):
        return MappingProxyType(self._faces)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledComplex)
            and self.n == other.n
            and self._faces == other._faces
        )

    __hash__ = None  # mutable caches; compare by content only

    def __len__(self) -> int:
        return len(self._faces)

    @cached_property
    def labels(self):
        """Cell label = lcm of the vertex labels."""
        return MappingProxyType({f: lcm_many(f) for f in self._faces})

    @cached_property
    def vertex_labels(self) -> tuple[Monomial, ...]:
        vs = [next(iter(f)) for f, d in self._faces.items() if d == 0]
        return tuple(sorted(vs, key=canonical_key))

    @property
    def dim(self) -> int:
        return max(self._faces.values(), default=-1)

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for d in self._faces.values():
            counts[d] += 1
        return tuple(counts)

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Canonically ordered cells with verified orientation signs."""
        cells = self._finalize()
        self._signs = None  # the cells carry them now
        return cells

    def _finalize(self) -> tuple[Cell, ...]:
        vid = {v: i for i, v in enumerate(self.vertex_labels)}
        keys = sorted(
            self._faces,
            key=lambda f: (self._faces[f], tuple(sorted(vid[v] for v in f))),
        )
        cid = {f: i for i, f in enumerate(keys)}
        buckets: dict[int, list[FaceKey]] = {}
        for f in keys:
            buckets.setdefault(self._faces[f], []).append(f)

        facets_of: dict[FaceKey, list[FaceKey]] = {}
        for d in range(1, self.dim + 1):
            below = buckets.get(d - 1, [])
            for f in buckets.get(d, []):
                fs = [t for t in below if t <= f]
                if len(fs) < d + 1:
                    raise ValueError(
                        f"cell {sorted(str(v) for v in f)} of dimension {d} "
                        f"has only {len(fs)} facets"
                    )
                facets_of[f] = fs

        signs = self._signs
        derive = signs is None
        if derive:
            signs = {}
        elif len(signs) != sum(map(len, facets_of.values())) or not all(
            (f, t) in signs for f, fs in facets_of.items() for t in fs
        ):
            raise ValueError("signs do not match the face relation")
        elif any(s not in (1, -1) for s in signs.values()):
            raise ValueError("signs must be +1 or -1")

        # an edge's two endpoint signs cancel under augmentation; derived,
        # +1 goes on the rlex-greater endpoint label and -1 on the other
        for e in buckets.get(1, []):
            u, v = sorted(e, key=canonical_key)
            hi, lo = (e, frozenset([u])), (e, frozenset([v]))
            if derive:
                signs[hi], signs[lo] = 1, -1
            elif signs[hi] + signs[lo] != 0:
                raise ValueError("edge endpoint signs must be opposite units")
        for d in range(2, self.dim + 1):
            for f in buckets.get(d, []):
                self._orient_cell(f, d, vid, buckets, facets_of, signs, derive)

        out = []
        for f in keys:
            d = self._faces[f]
            facets = tuple(
                sorted((cid[t], signs[(f, t)]) for t in facets_of.get(f, []))
            )
            out.append(
                Cell(
                    id=cid[f],
                    dim=d,
                    vertices=tuple(sorted(vid[v] for v in f)),
                    label=self.labels[f],
                    facets=facets,
                )
            )
        return tuple(out)

    def _orient_cell(self, f, d, vid, buckets, facets_of, signs, derive) -> None:
        fs = sorted(facets_of[f], key=lambda t: tuple(sorted(vid[v] for v in t)))
        # every (d-2)-cell inside f must be a ridge lying in exactly two facets
        ridge_facets: dict[FaceKey, list[FaceKey]] = {}
        for t in fs:
            for r in facets_of.get(t, []):
                ridge_facets.setdefault(r, []).append(t)
        direct = [r for r in buckets.get(d - 2, []) if r <= f]
        if set(direct) != set(ridge_facets) or any(
            len(v) != 2 for v in ridge_facets.values()
        ):
            raise ValueError(
                f"diamond property fails inside cell {sorted(str(v) for v in f)}"
            )

        if derive:
            adj: dict[FaceKey, list[tuple[FaceKey, FaceKey]]] = {t: [] for t in fs}
            for r, (t1, t2) in sorted(
                ridge_facets.items(),
                key=lambda kv: tuple(sorted(vid[v] for v in kv[0])),
            ):
                adj[t1].append((t2, r))
                adj[t2].append((t1, r))
            cell_sign = {fs[0]: 1}
            queue = [fs[0]]
            while queue:
                t = queue.pop(0)
                for t2, r in adj[t]:
                    if t2 not in cell_sign:
                        cell_sign[t2] = -cell_sign[t] * signs[(t, r)] * signs[(t2, r)]
                        queue.append(t2)
            if len(cell_sign) != len(fs):
                raise ValueError(
                    f"facet-ridge graph of cell {sorted(str(v) for v in f)} "
                    "is disconnected"
                )
            signs.update(((f, t), s) for t, s in cell_sign.items())
        for r, (t1, t2) in ridge_facets.items():
            if signs[(f, t1)] * signs[(t1, r)] + signs[(f, t2)] * signs[(t2, r)] != 0:
                raise ValueError(
                    f"orientation contradiction inside cell "
                    f"{sorted(str(v) for v in f)}"
                )


def simplex(labels) -> LabeledComplex:
    """The full simplex on distinct monomial labels."""
    labels = list(labels)
    if not labels:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(labels)) != len(labels):
        raise ValueError("simplex vertex labels must be distinct")
    n = labels[0].n
    faces = {}
    for k in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, k):
            faces[frozenset(combo)] = k - 1
    return LabeledComplex(n, faces)


def product(X: LabeledComplex, Y: LabeledComplex) -> LabeledComplex:
    """Cellwise product; vertex labels multiply.

    Requires all vertex-label products to be pairwise distinct, the
    combinatorial shadow of the generator-set product staying minimal.
    """
    if X.n != Y.n:
        raise ValueError("ambient mismatch")
    prods = {a * b for a in X.vertex_labels for b in Y.vertex_labels}
    if len(prods) != len(X.vertex_labels) * len(Y.vertex_labels):
        raise ValueError("vertex-label products collide; product is undefined")
    faces = {}
    for fa, da in X.faces.items():
        for fb, db in Y.faces.items():
            faces[frozenset(a * b for a in fa for b in fb)] = da + db
    return LabeledComplex(X.n, faces)


def union(X: LabeledComplex, Y: LabeledComplex) -> LabeledComplex:
    """Glue along cells with equal vertex-label sets, which must agree."""
    if X.n != Y.n:
        raise ValueError("ambient mismatch")
    faces = dict(X.faces)
    for f, d in Y.faces.items():
        if faces.get(f, d) != d:
            raise ValueError("union glues cells of different dimensions")
        faces[f] = d
    return LabeledComplex(X.n, faces)


def scale_labels(X: LabeledComplex, mu: Monomial) -> LabeledComplex:
    """Multiply every vertex label by mu (a relabeling, not a subdivision)."""
    if mu.n != X.n:
        raise ValueError("ambient mismatch")
    faces = {frozenset(v * mu for v in f): d for f, d in X.faces.items()}
    return LabeledComplex(X.n, faces)


def restrict(X: LabeledComplex, b: Monomial) -> LabeledComplex:
    """The subcomplex of cells whose label divides b.

    verify_resolution selects the same cells by bitmask without building a
    complex; this is the reference its per-degree results are tested against.
    """
    if b.n != X.n:
        raise ValueError("ambient mismatch")
    faces = {f: d for f, d in X.faces.items() if X.labels[f].divides(b)}
    return LabeledComplex(X.n, faces)


def spanned_subcomplex(X: LabeledComplex, V) -> LabeledComplex:
    """The subcomplex of cells all of whose vertices lie in V."""
    V = frozenset(V)
    missing = V - set(X.vertex_labels)
    if missing:
        raise ValueError(f"labels not among the vertices: {sorted(map(str, missing))}")
    faces = {f: d for f, d in X.faces.items() if f <= V}
    return LabeledComplex(X.n, faces)
