"""Chain complexes of labeled cell complexes, and resolution verification.

The complex of free modules supported on a labeled cell complex has one
basis element per cell, graded by the cell label; the differential entry
between a cell and a facet is the orientation sign (the monomial ratio of
the two labels is carried by the grading).  Such a complex resolves the
ideal generated by the vertex labels exactly when, for every degree b in
the lcm lattice, the subcomplex of cells whose label divides b has zero
reduced homology; it is minimal exactly when no cell shares its label with
one of its facets.  Homology ranks are computed exactly (see exact.py).

ChainComplex (complexes.py) is the one form of a finished complex: per cell
id its dimension, vertex ids, label exponent tuple and differential column
of (facet id, sign) pairs, built once by LabeledComplex._finalize and
returned by chain_complex.  A facet's label divides its cell's by
construction: both are lcms of vertex labels.  verify_resolution checks the
square of C = chain_complex(X) with check_boundary_squared_zero, then hands
the same C to the acyclicity kernel, which cuts its selections from C's
labels and its rank matrices from C's columns.  Its ResolutionReport holds
these results alone: the boundary verdict, the degrees in canonical order,
{degree: witness} for the failed ones, and ok when the square is zero and
nothing failed.

verify_resolution decides every degree with one kernel over the cells of
the already oriented complex.  lattice._walk over C's own label masks hands
over each degree b with live = X_{<=b}, the cells whose label divides b;
as a cell label is the lcm of its vertex labels, it visits exactly their
lcm lattice.  X_{<=b} is closed under faces, so its cells keep the parent's
verified signs and nothing is re-oriented.  Lexicographic order extends
divisibility, so every degree below b is decided before b: all that the
nerve guard and the lower rule ask of the order.  Verdicts and witnesses
are homology, whatever the order: the kernel returns the degrees, sorted
once into canonical order a degree at a time (one keyed sort of all peaks
higher), and a witness per failed degree.  Each degree is passed by the
nerve step or decided by lower, collapse and rank:

nerve      for each v with b_v > 0, ANDing X_{<=b} with the
           "exponent <= b_v - 1" mask gives X_{<=b-e_v}.  The 0-cells come
           first, one per generator, so on them X_{<=b} is the generators
           g dividing x^b and X_{<=b-e_v} is strict[v], those with
           g_v < b_v.  The upper Koszul complex K^b is the union of the
           full simplices on S_g = {v : g_v < b_v}; it is the full simplex
           on U = {v : strict[v] != 0} iff some S_g is U, iff the g's stay
           nonzero ANDed with every nonzero strict[v].  Three guards:
           no degree has failed so far, no cell of positive dimension is
           labeled b, and U is nonempty (otherwise a generator equals b:
           a vertex is labeled b).  Then X_{<=b} = X_{<b}, the union of
           the X_{<=b-e_v}.  The intersection over S is X_{<=b-e_S} =
           X_{<=c} for the join c < b of the vertex labels dividing
           b - e_S (a cell label is the lcm of its vertex labels): acyclic,
           as it passed, or empty exactly when S is not a face of K^b.  The
           Mayer-Vietoris spectral sequence of this cover gives
           H~(X_{<b}) = H~(K^b) = 0, so b passes with no collapse and no
           rank.  The argument is on the chain complex, so it holds with
           the complex's own signs, whose facet-ridge cancellations
           LabeledComplex checks.  (Miller-Sturmfels, Combinatorial
           Commutative Algebra, 2005, ch. 1 and 4; Bjorner, Topological
           methods, 1995, section 10.)  A degree failing a guard, or whose
           K^b is not a full simplex, goes on to the next three steps.
lower      every cell label is a lattice element, so X_{<=b-e_v} is
           X_{<=m} for the largest lattice element m dividing b - e_v.
           Every a < b divides one such m, so the largest of these masks
           is X_{<=a} for a lower cover a of b, found without computing
           covers.  The base is X_{<=a} unless that selection failed (only
           failures are kept), and the empty selection then; an atom, one
           vertex, has nothing below it.
collapse   repeatedly delete a cell of D = X_{<=b} minus base with exactly
           one remaining coface, together with that coface.  The base is
           closed under faces, so every coface of a cell in D is in D.  In
           a regular complex the coface is then a maximal cell (a coface of
           it would contain the free cell as a ridge, which lies in two of
           its facets), so this is an elementary collapse: a homotopy
           equivalence, and over Z a chain homotopy equivalence onto the
           subcomplex R = base + what is left of D, with its original signs
           (Batzies-Welker; Kaczynski-Mischaikow-Mrozek).
rank       if nothing of D is left, X_{<=b} collapses onto the acyclic base
           and b passes with no rank computed.  Otherwise the boundary
           matrices of C(R)/C(base), the cells left of D with their facet
           entries in base dropped, are ranked over the requested field,
           with the augmentation only when base is empty.  A nonempty base
           is acyclic, so the long exact sequence of the pair gives
           H_i(R, base) = H~_i(R) = H~_i(X_{<=b}) for every i: the reported
           homology and witnesses are exactly those of
           homology_dims(restrict(X, b), field).
"""
from __future__ import annotations

from functools import reduce
from operator import and_

from .borel import BorelIdeal
from .complexes import ChainComplex, LabeledComplex
from .exact import Field
from .lattice import _walk
from .monomials import Monomial, _below_masks, _bits, _Value

__all__ = [
    "ChainComplex",
    "chain_complex",
    "check_boundary_squared_zero",
    "homology_dims",
    "ResolutionReport",
    "verify_resolution",
    "check_minimal",
    "betti_from_cells",
    "betti_totals",
]


def chain_complex(X: LabeledComplex) -> ChainComplex:
    """The finished complex of X, built and checked once, then cached on X."""
    return X._chain


def check_boundary_squared_zero(C: ChainComplex) -> bool:
    """True iff the differential composed with itself is zero.

    Only nonzero entries are composed, one column of the square at a time;
    the differential is graded, so this covers every pair d, d + 1.
    """
    for col in C.columns:
        acc: dict[int, int] = {}
        for k, v2 in col:
            for row, v1 in C.columns[k]:
                acc[row] = acc.get(row, 0) + v1 * v2
        if any(acc.values()):
            return False
    return True


def homology_dims(X: LabeledComplex, fld: Field) -> tuple[int, ...]:
    """Reduced homology dimensions (H_{-1}, H_0, ..., H_dim).

    The void complex reports the empty tuple; callers decide whether a void
    restriction is acceptable (it is exactly when no generator divides the
    degree being checked).
    """
    if not len(X):
        return ()
    return _residual_homology(chain_complex(X), range(len(X)), X.dim, fld)


class ResolutionReport(_Value):
    # equality and repr ignore subject, the complex checked; failures,
    # {degree: witness}, is a dict, so a report is unhashable
    _fields = ("ok", "field", "boundary_squared_zero", "degrees", "failures")
    __slots__ = _fields + ("subject",)
    __hash__ = None

    def __init__(
        self, ok, field, boundary_squared_zero, degrees, failures, subject=None
    ) -> None:
        self._init(ok, field, boundary_squared_zero, degrees, failures, subject)


def _acyclicity_checks(C: ChainComplex, n: int, fld: Field):
    """The degrees of the finished complex C in n variables, in canonical
    order, and the failed ones, {degree: witness}: the walk over C's label
    masks hands each degree over with its selection, which passes by the
    nerve, or collapses relative to a lower selection that did not fail and
    ranks what is left (module docstring)."""
    facets = [[fid for fid, _ in col] for col in C.columns]
    comask = [0] * len(facets)
    for i, fids in enumerate(facets):
        for fid in fids:
            comask[fid] |= 1 << i
    # below[v][k]: cells whose label has exponent at most k in variable v
    below = _below_masks(C.labels, n)

    points = C.dims.count(0)  # the 0-cells come first
    vertices = (1 << points) - 1
    vbelow = [[m & vertices for m in masks] for masks in below]  # nerve: 0-cells
    # labels of positive-dimensional cells; a vertex labeled b leaves U empty
    labels = set(C.labels[points:])
    failed: set[int] = set()  # the selections that failed
    failures: dict[tuple[int, ...], dict] = {}
    buckets: list[list] = [[] for _ in range(sum(map(len, below)))]  # by degree

    def decide(b: tuple[int, ...], live: int) -> None:
        buckets[sum(b)].append(b)
        if not failed and b not in labels:
            # the nerve: K^b is the full simplex on a nonempty U
            strict = [s for m, e in zip(vbelow, b) if e and (s := live & m[e - 1])]
            if strict and reduce(and_, strict):
                return
        # X_{<=a} for a lower cover a of b, walked before b
        lower = max((live & m[e - 1] for m, e in zip(below, b) if e), default=0)
        base = 0 if lower in failed else lower
        left = _collapse(live, base, comask, facets)
        dims = ()  # nothing left: X_{<=b} collapses onto the acyclic base
        if left:
            top = C.dims[live.bit_length() - 1]
            dims = _residual_homology(C, _bits(left), top, fld, base)
        if any(dims):
            failed.add(live)
            failures[b] = {
                "reduced_homology": list(dims),
                "first_nonzero": next(i - 1 for i, h in enumerate(dims) if h != 0),
            }

    _walk(below, decide)
    # canonical order: by degree, then by reversed exponents
    degrees = (b for bs in buckets for b in sorted(bs, key=lambda e: e[::-1]))
    return tuple(degrees), failures


def _collapse(
    live: int, base: int, comask: list[int], facets: list[list[int]]
) -> int:
    """The cells of D = live minus base left after elementary collapses whose
    free face lies in D; base is a face-closed subcomplex of live.

    Every coface of a cell outside base is outside it too, so the free
    faces and their coface counts all live in D.
    """
    part = live ^ base
    selected = _bits(part)
    count = {i: (comask[i] & part).bit_count() for i in selected}
    free = [i for i in reversed(selected) if count[i] == 1]
    while free:
        f = free.pop()
        if not part >> f & 1 or count[f] != 1:
            continue
        c = (comask[f] & part).bit_length() - 1  # maximal: module docstring
        part ^= (1 << f) | (1 << c)
        for g in facets[c] + facets[f]:
            if g != f and g in count:
                count[g] -= 1
                if count[g] == 1:
                    free.append(g)
    return part


def _residual_homology(
    C: ChainComplex, residue, top: int, fld: Field, base: int = 0
):
    """(H_{-1}, ..., H_top) of R relative to base, ranked densely: R is the
    face-closed union of the residual cell ids and base, a face-closed
    bitmask of cell ids, and dropping facet entries in base gives
    C(R)/C(base).  The augmentation counts only when base is empty, so by
    default this is the reduced homology of the residue.  Empty blocks are
    not ranked."""
    by_dim: list[list[int]] = [[] for _ in range(top + 1)]
    for i in residue:
        by_dim[C.dims[i]].append(i)
    ranks = [0 if base else 1]  # the augmentation C_0 -> k
    for d in range(1, top + 1):
        row = {i: r for r, i in enumerate(by_dim[d - 1])}
        mat = [[0] * len(by_dim[d]) for _ in row]
        for j, i in enumerate(by_dim[d]):
            for fid, sign in C.columns[i]:
                if not base >> fid & 1:
                    mat[row[fid]][j] = sign
        ranks.append(fld.rank(mat) if row and by_dim[d] else 0)
    ranks.append(0)  # nothing maps onto the top cells
    return (0,) + tuple(
        len(ids) - ranks[i] - ranks[i + 1] for i, ids in enumerate(by_dim)
    )


def verify_resolution(
    X: LabeledComplex,
    I: BorelIdeal,
    fld: Field = Field(),
) -> ResolutionReport:
    """Check that the complex supports a resolution of I.

    Verifies the squared differential and, for every lcm-lattice degree b
    above the bottom (top included), that the label-restricted subcomplex
    has zero reduced homology.  Degrees are checked serially in a fixed
    order; the report lists them in canonical order, with a witness for
    each failed one.
    """
    C = chain_complex(X)
    # the 0-cells come first and carry the vertex labels
    if set(C.labels[: C.dims.count(0)]) != {g.exps for g in I.expanded}:
        raise ValueError("vertex labels differ from the minimal generators")
    bsq = check_boundary_squared_zero(C)
    degrees, failures = _acyclicity_checks(C, I.n, fld)
    return ResolutionReport(bsq and not failures, str(fld), bsq, degrees, failures, X)


def check_minimal(X: LabeledComplex) -> bool:
    """True iff no cell has a facet carrying the same label."""
    C = chain_complex(X)
    return all(C.labels[f] != e for e, col in zip(C.labels, C.columns) for f, _ in col)


def betti_from_cells(
    X: LabeledComplex, report: ResolutionReport
) -> dict[tuple[int, Monomial], int]:
    """Graded Betti numbers read off the cells of a verified minimal complex.

    Demands a passing report for this very complex plus minimality; a
    minimal resolution has beta_{i,b} = number of i-cells labeled b.
    """
    if report.subject is not X:
        raise ValueError("report was computed for a different complex")
    if not report.ok:
        raise ValueError("complex failed resolution verification")
    if not check_minimal(X):
        raise ValueError("complex is not minimal")
    C = chain_complex(X)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for key in zip(C.dims, C.labels):
        counts[key] = counts.get(key, 0) + 1
    return {(d, Monomial(e)): k for (d, e), k in counts.items()}


def betti_totals(table: dict[tuple[int, Monomial], int]) -> tuple[int, ...]:
    """Collapse a graded Betti table to total numbers (beta_0, beta_1, ...)."""
    if not table:
        return ()
    top = max(i for i, _ in table)
    out = [0] * (top + 1)
    for (i, _), v in table.items():
        out[i] += v
    return tuple(out)
