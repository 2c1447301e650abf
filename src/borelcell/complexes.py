"""Labeled regular cell complexes stored as face posets.

Every cell is identified by its set of vertices, so a complex is a map
{vertex set -> dimension} and the face relation is vertex-set containment.
That identification is exactly right for complexes of convex polytopes in
which each cell is the convex hull of its vertices: a cell whose vertex set
sits inside another's is a face of it.

Inside, vertex labels are stored once, as exponent tuples in canonical
order (degree, then rlex-descending); a vertex's id is its position there,
and a face is an int bitmask over vertex ids, so containment is
`t & ~f == 0`.  The builders' primitives and the JSON import work on this
form directly.  Frozensets of `Monomial`s appear only at the boundary: the
`LabeledComplex(n, faces, signs)` constructor and the `faces` and `labels`
mappings convert once.

Cell labels are the lcm of the vertex labels.  Boundary orientation signs
are data: an import supplies one per (cell, facet) pair, while a built
complex leaves them to be derived by a breadth-first walk of each cell's
facet-ridge graph from its lowest facet.  Either way one routine,
`_finalize`, runs lazily once per complex.  It numbers the cells by
(dimension, sorted vertex ids) and indexes each dimension's cells by their
lowest vertex, so the faces of a cell are sought only among cells whose
lowest vertex lies in it.  It derives the facet relation, requires
supplied signs to cover exactly that relation, and checks every sign
against every codimension-two cancellation constraint:

    sign(c, f) * sign(f, r) + sign(c, f') * sign(f', r) == 0

whenever r is a ridge of c lying in the two facets f and f'.  Regularity is
enforced on the same walk through the diamond property: every ridge of a
cell lies in exactly two of its facets.
"""
from __future__ import annotations

from functools import cached_property
from operator import add, le
from types import MappingProxyType

from .monomials import Monomial, _bits, _exps_key, _set, _Value

__all__ = [
    "Cell",
    "LabeledComplex",
    "simplex",
    "product",
    "union",
    "restrict",
    "spanned_subcomplex",
]


class Cell(_Value):
    """One cell of a finished complex: vertex ids and (facet id, sign) pairs."""

    __slots__ = _fields = ("id", "dim", "vertices", "label", "facets")

    def __init__(self, id, dim, vertices, label: Monomial, facets) -> None:
        _set(self, "id", id)
        _set(self, "dim", dim)
        _set(self, "vertices", vertices)
        _set(self, "label", label)
        _set(self, "facets", facets)


class LabeledComplex:
    """A monomial-labeled regular cell complex.

    faces maps vertex-label sets (frozensets of monomials) to dimensions;
    the optional signs map (cell key, facet key) pairs to +1/-1 and are
    derived when omitted.
    """

    def __init__(self, n: int, faces, signs=None) -> None:
        if type(n) is not int or n < 1:
            raise ValueError("ambient ring needs at least one variable")
        faces = dict(faces)
        for f in faces:
            if not isinstance(f, frozenset) or not f:
                raise ValueError("faces must be nonempty frozensets of monomials")
            if any(not isinstance(v, Monomial) or v.n != n for v in f):
                raise ValueError("face vertices must be monomials in the ambient ring")
        verts = sorted({v.exps for f in faces for v in f}, key=_exps_key)
        vid = {e: i for i, e in enumerate(verts)}
        mask = {f: sum(1 << vid[v.exps] for v in f) for f in faces}
        if signs is not None:
            # a key that is no face maps to -1, which no cell matches
            signs = {
                (mask.get(f, -1), mask.get(t, -1)): s for (f, t), s in signs.items()
            }
        self._setup(n, tuple(verts), {mask[f]: d for f, d in faces.items()}, signs)

    @classmethod
    def _from_masks(cls, n: int, verts, dims, signs=None) -> "LabeledComplex":
        """The integer form: canonically sorted vertex exponent tuples, a
        {face mask: dim} map and optional {(cell mask, facet mask): sign}."""
        X = cls.__new__(cls)
        X._setup(n, verts, dims, signs)
        return X

    def _setup(self, n: int, verts: tuple, dims: dict, signs) -> None:
        points = 0
        for f, d in dims.items():
            if type(d) is not int or d < 0:  # not bool: dumps would write True
                raise ValueError("face dimensions must be non-negative integers")
            k = f.bit_count()
            if (k == 1) != (d == 0):
                raise ValueError("exactly the singleton faces have dimension 0")
            if d == 1 and k != 2:
                raise ValueError("one-dimensional faces have exactly two vertices")
            if k < d + 1:
                raise ValueError("a d-cell needs at least d+1 vertices")
            if d == 0:
                points |= f
        no_point = ~points & ((1 << len(verts)) - 1)
        if no_point:
            v = Monomial(verts[_bits(no_point)[0]])
            raise ValueError(f"vertex {v} of a face is not a 0-cell")
        self.n = n
        self._verts = verts
        self._dims = dims
        self._signs = signs

    @cached_property
    def _vertex_ids(self) -> dict[int, tuple[int, ...]]:
        """Face mask -> its vertex ids, ascending."""
        return {f: tuple(_bits(f)) for f in self._dims}

    @cached_property
    def faces(self):
        vs = self.vertex_labels
        return MappingProxyType(
            {
                frozenset(vs[i] for i in ids): self._dims[f]
                for f, ids in self._vertex_ids.items()
            }
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledComplex)
            and self.n == other.n
            and self._verts == other._verts
            and self._dims == other._dims
        )

    __hash__ = None  # mutable caches; compare by content only

    def __len__(self) -> int:
        return len(self._dims)

    @cached_property
    def _label_exps(self) -> dict[int, tuple[int, ...]]:
        verts = self._verts
        return {
            f: tuple(map(max, zip(*(verts[i] for i in ids))))
            for f, ids in self._vertex_ids.items()
        }

    @cached_property
    def labels(self):
        """Cell label = lcm of the vertex labels."""
        # faces lists its keys in the order of self._dims
        lab = self._label_exps
        return MappingProxyType(
            {k: Monomial(lab[f]) for k, f in zip(self.faces, self._dims)}
        )

    @cached_property
    def vertex_labels(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(e) for e in self._verts)

    @property
    def dim(self) -> int:
        return max(self._dims.values(), default=-1)

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for d in self._dims.values():
            counts[d] += 1
        return tuple(counts)

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Canonically ordered cells with verified orientation signs."""
        cells = self._finalize()
        self._signs = None  # the cells carry them now
        return cells

    def _name(self, f: int) -> list[str]:
        return sorted(str(Monomial(self._verts[i])) for i in self._vertex_ids[f])

    def _finalize(self) -> tuple[Cell, ...]:
        dims = self._dims
        verts_of = self._vertex_ids
        keys = sorted(dims, key=verts_of.__getitem__)
        keys.sort(key=dims.__getitem__)  # stable: by dimension, then vertex ids
        fv = self.f_vector()
        edges = range(sum(fv[:1]), sum(fv[:2]))  # the ids of the 1-cells
        # low[d][v]: ids of the d-cells whose lowest vertex is v, ascending
        low: list[dict[int, list[int]]] = [{} for _ in range(self.dim + 1)]
        for i, f in enumerate(keys):
            low[dims[f]].setdefault(verts_of[f][0], []).append(i)

        def inside(i: int, d: int) -> list[int]:
            # ascending: ids order d-cells by sorted vertex ids, lowest first
            f = keys[i]
            by_low = low[d]
            return [
                t for v in verts_of[f] for t in by_low.get(v, ()) if not keys[t] & ~f
            ]

        facets: list[list[int]] = [[] for _ in keys]
        for i in range(edges.start, len(keys)):
            d = dims[keys[i]]
            facets[i] = fs = inside(i, d - 1)
            if len(fs) < d + 1:
                raise ValueError(
                    f"cell {self._name(keys[i])} of dimension {d} "
                    f"has only {len(fs)} facets"
                )

        # sign[c][t]: the sign of facet t in the boundary of cell c
        if self._signs is None:
            derive, sign = True, [{} for _ in keys]
        else:
            derive, sign = False, self._supplied_signs(keys, facets)

        # an edge's two endpoint signs cancel under augmentation; derived,
        # +1 goes on the rlex-greater endpoint label (the lower vertex id)
        for e in edges:
            u, v = facets[e]
            if derive:
                sign[e] = {u: 1, v: -1}
            elif sign[e][u] + sign[e][v] != 0:
                raise ValueError("edge endpoint signs must be opposite units")
        for c in range(edges.stop, len(keys)):
            ridges = len(inside(c, dims[keys[c]] - 2))
            self._orient_cell(c, keys[c], ridges, facets, sign, derive)

        lab = self._label_exps
        return tuple(
            Cell(
                id=i,
                dim=dims[f],
                vertices=verts_of[f],
                label=Monomial(lab[f]),
                facets=tuple((t, sign[i][t]) for t in facets[i]),
            )
            for i, f in enumerate(keys)
        )

    def _supplied_signs(self, keys, facets) -> list[dict[int, int]]:
        supplied, missing = self._signs, object()
        # one sign per derived (cell, facet) pair, and no other pairs
        sign = [
            {t: supplied.get((f, keys[t]), missing) for t in fs}
            for f, fs in zip(keys, facets)
        ]
        if len(supplied) != sum(map(len, facets)) or any(
            missing in sg.values() for sg in sign
        ):
            raise ValueError("signs do not match the face relation")
        if any(type(s) is not int or s not in (1, -1) for s in supplied.values()):
            raise ValueError("signs must be +1 or -1")
        return sign

    def _orient_cell(self, c, mask, ridges, facets, sign, derive) -> None:
        fs = facets[c]
        # every (d-2)-cell inside c must be a ridge lying in exactly two facets
        ridge_facets: dict[int, list[int]] = {}
        for t in fs:
            for r in facets[t]:
                ridge_facets.setdefault(r, []).append(t)
        # the ridges found are among the `ridges` (d-2)-cells inside c
        if len(ridge_facets) != ridges or any(
            len(v) != 2 for v in ridge_facets.values()
        ):
            raise ValueError(f"diamond property fails inside cell {self._name(mask)}")

        sc = sign[c]
        if derive:
            adj: dict[int, list[tuple[int, int]]] = {t: [] for t in fs}
            for r, (t1, t2) in ridge_facets.items():
                w = sign[t1][r] * sign[t2][r]
                adj[t1].append((t2, w))
                adj[t2].append((t1, w))
            sc[fs[0]] = 1
            queue = [fs[0]]
            for t in queue:
                for t2, w in adj[t]:
                    if t2 not in sc:
                        sc[t2] = -sc[t] * w
                        queue.append(t2)
            if len(sc) != len(fs):
                raise ValueError(
                    f"facet-ridge graph of cell {self._name(mask)} is disconnected"
                )
        for r, (t1, t2) in ridge_facets.items():
            if sc[t1] * sign[t1][r] + sc[t2] * sign[t2][r] != 0:
                raise ValueError(
                    f"orientation contradiction inside cell {self._name(mask)}"
                )


def simplex(labels) -> LabeledComplex:
    """The full simplex on distinct monomial labels."""
    labels = list(labels)
    if not labels:
        raise ValueError("a simplex needs at least one vertex")
    n = labels[0].n
    if any(not isinstance(v, Monomial) or v.n != n for v in labels):
        raise ValueError("face vertices must be monomials in the ambient ring")
    verts = sorted({v.exps for v in labels}, key=_exps_key)
    if len(verts) != len(labels):
        raise ValueError("simplex vertex labels must be distinct")
    faces = {f: f.bit_count() - 1 for f in range(1, 1 << len(verts))}
    return LabeledComplex._from_masks(n, tuple(verts), faces)


def product(X: LabeledComplex, Y: LabeledComplex) -> LabeledComplex:
    """Cellwise product; vertex labels multiply.

    Requires all vertex-label products to be pairwise distinct, the
    combinatorial shadow of the generator-set product staying minimal.
    """
    if X.n != Y.n:
        raise ValueError("ambient mismatch")
    prods = [[tuple(map(add, a, b)) for b in Y._verts] for a in X._verts]
    verts = sorted({p for row in prods for p in row}, key=_exps_key)
    if len(verts) != len(X._verts) * len(Y._verts):
        raise ValueError("vertex-label products collide; product is undefined")
    vid = {p: i for i, p in enumerate(verts)}
    ybits = {g: _bits(g) for g in Y._dims}
    # rows[i][g]: the mask of the product face {vertex i of X} x g
    rows = [
        {g: sum(1 << vid[row[j]] for j in js) for g, js in ybits.items()}
        for row in prods
    ]
    faces = {}
    for f, df in X._dims.items():
        fr = [rows[i] for i in _bits(f)]
        for g, dg in Y._dims.items():
            m = 0
            for r in fr:
                m |= r[g]
            faces[m] = df + dg
    return LabeledComplex._from_masks(X.n, tuple(verts), faces)


def _renumber(X: LabeledComplex, verts: tuple, faces: dict[int, int]):
    """Faces of X as masks over verts, which holds all of their vertices."""
    if verts == X._verts:
        return faces
    bit = {v: 1 << i for i, v in enumerate(verts)}
    new = [bit.get(v, 0) for v in X._verts]
    return {sum(new[i] for i in _bits(f)): d for f, d in faces.items()}


def union(X: LabeledComplex, *others: LabeledComplex) -> LabeledComplex:
    """Glue complexes along cells with equal vertex-label sets, which must agree."""
    pieces = (X, *others)
    if any(Y.n != X.n for Y in others):
        raise ValueError("ambient mismatch")
    verts = tuple(sorted(set().union(*(Y._verts for Y in pieces)), key=_exps_key))
    faces: dict[int, int] = {}
    for Y in pieces:
        for f, d in _renumber(Y, verts, Y._dims).items():
            if faces.setdefault(f, d) != d:
                raise ValueError("union glues cells of different dimensions")
    return LabeledComplex._from_masks(X.n, verts, faces)


def _subcomplex(X: LabeledComplex, faces: dict[int, int]) -> LabeledComplex:
    """The complex on a face-closed subset of X's faces."""
    points = sum(f for f, d in faces.items() if d == 0)
    verts = tuple(X._verts[i] for i in _bits(points))
    return LabeledComplex._from_masks(X.n, verts, _renumber(X, verts, faces))


def restrict(X: LabeledComplex, b: Monomial) -> LabeledComplex:
    """The subcomplex of cells whose label divides b.

    verify_resolution selects the same cells by bitmask without building a
    complex; this is the reference its per-degree results are tested against.
    """
    if b.n != X.n:
        raise ValueError("ambient mismatch")
    lab = X._label_exps
    return _subcomplex(
        X, {f: d for f, d in X._dims.items() if all(map(le, lab[f], b.exps))}
    )


def spanned_subcomplex(X: LabeledComplex, V) -> LabeledComplex:
    """The subcomplex of cells all of whose vertices lie in V."""
    vid = {e: i for i, e in enumerate(X._verts)}
    V = list(V)
    missing = {str(v) for v in V if getattr(v, "exps", None) not in vid}
    if missing:
        raise ValueError(f"labels not among the vertices: {sorted(missing)}")
    span = 0
    for v in V:
        span |= 1 << vid[v.exps]
    return _subcomplex(X, {f: d for f, d in X._dims.items() if not f & ~span})
