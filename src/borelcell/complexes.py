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
are data: an import supplies one per (cell, facet) pair, as a map
{cell mask: {facet mask: sign}}, while a built complex leaves them to be
derived.  Either way one routine, `_finalize`, runs lazily once per
complex, on integer bitmasks throughout.  It numbers the cells by
(dimension, sorted vertex ids), so each dimension's cells hold a contiguous
range of ids, and it keeps, per dimension and vertex, the star: a mask of
the cells of that dimension that contain the vertex.  The AND of the stars
one dimension up over a cell's vertices is the set of its cofacets; that
gives the facet relation, which supplied signs must cover exactly.  Each
cell's facets are then a ridge mask apiece, and the checks are mask algebra.
Regularity is the diamond property: every (d-2)-cell inside a d-cell c is
a ridge of c lying in exactly two of its facets.  Bit-sliced counters over
the facets' ridge masks find the ridges met once, twice and more often.
A (d-2)-cell r lies in a facet of c iff c is a cofacet of one of r's
cofacets, so each r is tested against all the d-cells that contain it at
once: the AND of the stars two dimensions up over r's vertices.  Signs
are derived from +1 on the lowest facet by propagation across shared
ridges, and checked against every codimension-two cancellation constraint:

    sign(c, f) * sign(f, r) + sign(c, f') * sign(f', r) == 0

whenever r is a ridge of c lying in the two facets f and f'.  With two
facets per ridge, that holds on all ridges of c iff the facets' ridge masks,
each split by sign and signed by its facet's sign in c, cover every ridge
once with +1 and once with -1.

A complex stores the masks it is built on (vertex exponent tuples, the
{face mask: dim} map, and supplied signs until they are checked) and, once
`_finalize` has run, the finished complex as one `ChainComplex` of arrays
indexed by cell id, cached as `_chain`; supplied signs are dropped once it
exists.  `_finalize` alone computes a finished cell's vertex ids and label,
and every other module reads those arrays.  The `faces`, `labels` and
`cells` views are built on first read for library callers: `labels` takes
each face's lcm then, and `Cell` objects exist only in `cells`.
"""
from __future__ import annotations

from functools import cached_property
from operator import add, le
from types import MappingProxyType

from .monomials import Monomial, _bits, _exps_key, _set, _Value

__all__ = [
    "Cell",
    "ChainComplex",
    "LabeledComplex",
    "simplex",
    "product",
    "union",
    "restrict",
    "spanned_subcomplex",
]


class ChainComplex(_Value):
    """A finished complex by cell id: dims[i], vertex ids vertices[i], label
    exponent tuple labels[i], and columns[i], the (facet id, orientation
    sign) pairs of the cellular differential's column for cell i."""

    __slots__ = _fields = ("dims", "vertices", "labels", "columns")

    def __init__(self, dims, vertices, labels, columns) -> None:
        self._init(dims, vertices, labels, columns)


class Cell(_Value):
    """One cell of a finished complex, as the `cells` view lists it."""

    __slots__ = _fields = ("id", "dim", "vertices", "label", "facets")

    def __init__(self, id, dim, vertices, label: Monomial, facets) -> None:
        _set(self, "id", id)
        _set(self, "dim", dim)
        _set(self, "vertices", vertices)
        _set(self, "label", label)
        _set(self, "facets", facets)


# the cached properties of a LabeledComplex that its other state determines
_RECOMPUTED = frozenset(("faces", "labels", "vertex_labels", "cells"))


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
            per_cell: dict[int, dict[int, int]] = {}
            for (f, t), s in signs.items():
                per_cell.setdefault(mask.get(f, -1), {})[mask.get(t, -1)] = s
            signs = per_cell
        self._setup(n, tuple(verts), {mask[f]: d for f, d in faces.items()}, signs)

    @classmethod
    def _from_masks(cls, n: int, verts, dims, signs=None) -> "LabeledComplex":
        """The integer form: canonically sorted vertex exponent tuples, a
        {face mask: dim} map and optional {cell mask: {facet mask: sign}}."""
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
    def faces(self):
        vs = self.vertex_labels
        return MappingProxyType(
            {frozenset(vs[i] for i in _bits(f)): d for f, d in self._dims.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledComplex)
            and self.n == other.n
            and self._verts == other._verts
            and self._dims == other._dims
        )

    __hash__ = None  # mutable caches; compare by content only

    def __getstate__(self) -> dict:
        # copy and pickle leave out the caches that are recomputed on demand,
        # mapping proxies among them; `_chain` stays, since once it is read
        # it holds the only copy of supplied signs
        return {k: v for k, v in self.__dict__.items() if k not in _RECOMPUTED}

    def __len__(self) -> int:
        return len(self._dims)

    @cached_property
    def labels(self):
        """Cell label = lcm of the vertex labels."""
        lcm = [tuple(map(max, zip(*(v.exps for v in k)))) for k in self.faces]
        return MappingProxyType(dict(zip(self.faces, map(Monomial, lcm))))

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
    def _chain(self) -> ChainComplex:
        C = self._finalize()
        self._signs = None  # the finished complex carries them now
        return C

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Canonically ordered cells with verified orientation signs: a view
        of the finished complex for library callers, built on first read."""
        C, ids = self._chain, range(len(self))
        labels = map(Monomial, C.labels)
        return tuple(map(Cell, ids, C.dims, C.vertices, labels, C.columns))

    def _name(self, f: int) -> list[str]:
        return sorted(str(Monomial(self._verts[i])) for i in _bits(f))

    def _finalize(self) -> ChainComplex:
        dims, verts = self._dims, self._verts
        verts_of = {f: tuple(_bits(f)) for f in dims}  # vertex ids, ascending
        keys = sorted(dims, key=verts_of.__getitem__)
        keys.sort(key=dims.__getitem__)  # stable: by dimension, then vertex ids
        fv = self.f_vector()
        edges = range(sum(fv[:1]), sum(fv[:2]))  # the ids of the 1-cells
        first = [0]  # first[d]: the id of the first d-cell
        for k in fv:
            first.append(first[-1] + k)
        # star[d][v]: the d-cells that contain vertex v, as a mask over
        # offsets from first[d]; the AND over a cell's vertices of the stars
        # one dimension up is the set of its cofacets
        star = [[0] * len(verts) for _ in fv]
        for i, f in enumerate(keys):
            s, bit = star[dims[f]], 1 << (i - first[dims[f]])
            for v in verts_of[f]:
                s[v] |= bit

        # facets[c]: the ids of c's facets, ascending; below[c]: the same
        # facets as a mask over offsets from first[dim - 1]; cof[t]: the
        # cofacets of t as a mask over offsets from first[dim + 1]
        facets: list[list[int]] = [[] for _ in keys]
        below = [0] * len(keys)
        cof = [0] * len(keys)
        # torn[d]: the d-cells c with a (d-2)-cell inside them that lies in
        # no facet of c; r lies in a facet of c iff c is a cofacet of one of
        # r's cofacets
        torn = [0] * len(fv)
        for d in range(len(fv) - 2, -1, -1):  # top down: cof one dim up is known
            up, above = star[d + 1], first[d + 1]
            up2 = star[d + 2] if d + 2 < len(fv) else None
            for i in range(first[d], above):
                vs = verts_of[keys[i]]
                m = up[vs[0]]
                for v in vs[1:]:
                    m &= up[v]
                cof[i] = m
                bit = 1 << (i - first[d])
                reach = 0
                while m:
                    low = m & -m
                    c = above + low.bit_length() - 1
                    facets[c].append(i)
                    below[c] |= bit
                    reach |= cof[c]
                    m ^= low
                if up2 is not None:
                    m = up2[vs[0]]
                    for v in vs[1:]:
                        m &= up2[v]
                    torn[d + 2] |= m & ~reach
        del star, cof

        for i in range(edges.start, len(keys)):
            d = dims[keys[i]]
            if len(facets[i]) < d + 1:
                raise ValueError(
                    f"cell {self._name(keys[i])} of dimension {d} "
                    f"has only {len(facets[i])} facets"
                )

        # sign[c]: the signs of c's facets in its boundary, as facets[c] lists them
        if self._signs is None:
            derive, sign = True, [[] for _ in keys]
        else:
            derive, sign = False, self._supplied_signs(keys, facets)
        # pos[c], neg[c]: the facets of c with sign +1 and -1, as masks like below[c]
        pos = [0] * len(keys)
        neg = [0] * len(keys)

        # an edge's two endpoint signs cancel under augmentation; derived,
        # +1 goes on the rlex-greater endpoint label (the lower vertex id)
        for e in edges:
            u, v = facets[e]
            if derive:
                sign[e] = [1, -1]
            elif sign[e][0] + sign[e][1] != 0:
                raise ValueError("edge endpoint signs must be opposite units")
            pos[e], neg[e] = (1 << u, 1 << v) if sign[e][0] > 0 else (1 << v, 1 << u)
        for c in range(edges.stop, len(keys)):
            d, fs = dims[keys[c]], facets[c]
            # bit-sliced counts of the facets each ridge of c lies in: the
            # ridges met once or more, twice or more, three times or more
            once = twice = more = 0
            for t in fs:
                r = below[t]
                more |= twice & r
                twice |= once & r
                once |= r
            # every (d-2)-cell inside c must be a ridge lying in exactly two facets
            if more or twice != once or torn[d] >> (c - first[d]) & 1:
                raise ValueError(
                    f"diamond property fails inside cell {self._name(keys[c])}"
                )
            # P, N: the ridges that c's facets carry with sign +1 and -1 once
            # each facet's signs are multiplied by its own sign in c
            if derive:
                # from +1 on the first facet, across shared ridges: a facet
                # that meets the signed ones in a ridge takes the sign that
                # cancels there (ridges lie in two facets, so in P or in N)
                sc = sign[c] = [1] + [0] * (len(fs) - 1)
                P, N = pos[fs[0]], neg[fs[0]]
                todo = range(1, len(fs))
                while todo:
                    left = []
                    for j in todo:
                        t = fs[j]
                        hit = below[t] & (P | N)
                        if not hit:
                            left.append(j)
                        elif (P ^ pos[t]) & hit & -hit:
                            sc[j] = 1
                            P |= pos[t]
                            N |= neg[t]
                        else:
                            sc[j] = -1
                            P |= neg[t]
                            N |= pos[t]
                    if len(left) == len(todo):
                        raise ValueError(
                            f"facet-ridge graph of cell {self._name(keys[c])} "
                            "is disconnected"
                        )
                    todo = left
            else:
                P = N = 0
                for t, s in zip(fs, sign[c]):
                    P |= pos[t] if s > 0 else neg[t]
                    N |= neg[t] if s > 0 else pos[t]
            # with two facets per ridge, the signs cancel on every ridge iff
            # each ridge is carried once with +1 and once with -1
            if P != once or N != once:
                raise ValueError(
                    f"orientation contradiction inside cell {self._name(keys[c])}"
                )
            base = first[d - 1]
            pos[c] = sum(1 << (t - base) for t, s in zip(fs, sign[c]) if s > 0)
            neg[c] = below[c] ^ pos[c]
        del below, pos, neg, torn

        ids = tuple(verts_of[f] for f in keys)
        return ChainComplex(
            tuple(dims[f] for f in keys),
            ids,
            tuple(tuple(map(max, zip(*map(verts.__getitem__, vs)))) for vs in ids),
            tuple(tuple(zip(fs, sg)) for fs, sg in zip(facets, sign)),
        )

    def _supplied_signs(self, keys, facets) -> list[list[int]]:
        supplied, missing, none = self._signs, object(), {}
        # one sign per derived (cell, facet) pair, and no other pairs
        sign = [
            [sg.get(keys[t], missing) for t in fs]
            for sg, fs in zip((supplied.get(f, none) for f in keys), facets)
        ]
        if sum(map(len, supplied.values())) != sum(map(len, facets)) or any(
            missing in sg for sg in sign
        ):
            raise ValueError("signs do not match the face relation")
        if any(
            type(s) is not int or s not in (1, -1)
            for sg in supplied.values()
            for s in sg.values()
        ):
            raise ValueError("signs must be +1 or -1")
        return sign


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
    return _glue([(X, Y)])


def _glue(pairs) -> LabeledComplex:
    """union(*(product(X, Y) for X, Y in pairs)), with each product's faces
    built directly over the union's vertices: one sort, no renumbering."""
    # prods[k][i][j]: the label of vertex i of X times vertex j of Y, pair k
    prods = []
    for X, Y in pairs:
        if X.n != Y.n or X.n != pairs[0][0].n:
            raise ValueError("ambient mismatch")
        rows = [[tuple(map(add, a, b)) for b in Y._verts] for a in X._verts]
        if len(set().union(*rows)) != len(X._verts) * len(Y._verts):
            raise ValueError("vertex-label products collide; product is undefined")
        prods.append(rows)
    verts = tuple(sorted(set().union(*sum(prods, [])), key=_exps_key))
    bit = {p: 1 << i for i, p in enumerate(verts)}
    faces: dict[int, int] = {}
    for (X, Y), rows in zip(pairs, prods):
        ybits = {g: _bits(g) for g in Y._dims}
        # cols[i][g]: the mask of the product face {vertex i of X} x g
        cols = []
        for row in rows:
            b = [bit[p] for p in row]
            cols.append({g: sum([b[j] for j in js]) for g, js in ybits.items()})
        for f, df in X._dims.items():
            fc = [cols[i] for i in _bits(f)]
            for g, dg in Y._dims.items():
                m = 0
                for c in fc:
                    m |= c[g]
                if faces.setdefault(m, df + dg) != df + dg:
                    raise ValueError("union glues cells of different dimensions")
    return LabeledComplex._from_masks(pairs[0][0].n, verts, faces)


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
    # a label is the lcm of its cell's vertex labels: it divides b iff they do
    span = sum(1 << i for i, e in enumerate(X._verts) if all(map(le, e, b.exps)))
    return _subcomplex(X, {f: d for f, d in X._dims.items() if not f & ~span})


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
