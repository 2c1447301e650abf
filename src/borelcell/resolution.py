"""Chain complexes of labeled cell complexes, and resolution verification.

The complex of free modules supported on a labeled cell complex has one
basis element per cell, graded by the cell label; the differential entry
between a cell and a facet is the orientation sign (the monomial ratio of
the two labels is carried by the grading).  Such a complex resolves the
ideal generated by the vertex labels exactly when, for every degree b in
the lcm lattice, the subcomplex of cells whose label divides b has zero
reduced homology; it is minimal exactly when no cell shares its label with
one of its facets.  Homology ranks are computed exactly (see exact.py).

ChainComplex is the one form of the differential: sparse columns over cell
ids, read off the oriented cells.  chain_complex is the one place that
checks each facet label divides its cell label, and
check_boundary_squared_zero composes the columns with themselves.
verify_resolution builds C = chain_complex(X) once, checks its square, and
hands the same C to the acyclicity kernel, whose rank matrices are cut from
C's columns.  homology_dims ranks the chain_complex of its argument the same
way.

verify_resolution decides every degree with one kernel over the cells of
the already oriented complex, in three steps:

select     AND one "exponent <= b_v" bitmask per variable v over cell ids.
           The result is the subcomplex of cells whose label divides b; it
           is closed under faces (a face's label divides its cell's), so
           every selected cell keeps its facets, ridges and the parent's
           verified signs, and nothing needs re-orienting.
collapse   repeatedly delete a cell with exactly one remaining coface
           together with that coface.  In a regular complex the coface is
           then a maximal cell (a coface of it would contain the free cell
           as a ridge, which lies in two of its facets), so this is an
           elementary collapse: a homotopy equivalence, and over Z a chain
           homotopy equivalence onto the remaining subcomplex with its
           original signs (Batzies-Welker; Kaczynski-Mischaikow-Mrozek).
eliminate  a residue of one vertex is acyclic over every field.  Otherwise
           the residual boundary matrices are ranked over the requested
           field; the residue has the reduced homology of the selected
           subcomplex, so the reported homology and witnesses are exactly
           those of homology_dims(restrict(X, b), field).

Degrees run in canonical order, so every degree below b in the lattice is
decided before b, and after select the kernel first collapses relative to
one of them:

lower      for each v with b_v > 0, ANDing X_{<=b} with the
           "exponent <= b_v - 1" mask gives X_{<=m}, where m is the largest
           lattice element dividing b - e_v (every cell label is a lattice
           element).  Every a < b divides one such m, so the largest of
           these masks is X_{<=a} for a lower cover a of b, found without
           computing covers.
relative   if X_{<=a} passed, collapse only D = X_{<=b} minus X_{<=a}.
           X_{<=a} is closed under faces, so every coface of a cell in D is
           in D, and a collapse whose free face lies in D stays in D.  If
           such collapses empty D, X_{<=b} collapses onto the acyclic
           X_{<=a}, and b passes.
fallback   an atom (one vertex, nothing below it), a degree whose lower
           selection failed, and a degree whose relative collapse leaves
           cells of D run collapse and eliminate on all of X_{<=b}.  The
           relative step passes only degrees that are acyclic, so reports
           and witnesses are exactly those of the absolute steps alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import le

from .borel import BorelIdeal
from .complexes import LabeledComplex
from .exact import Field
from .lattice import build_lattice
from .monomials import Monomial, _below_masks, _bits, _exps_text

__all__ = [
    "ChainComplex",
    "chain_complex",
    "check_boundary_squared_zero",
    "homology_dims",
    "CheckResult",
    "ResolutionReport",
    "verify_resolution",
    "check_minimal",
    "betti_from_cells",
    "betti_totals",
]


@dataclass(frozen=True)
class ChainComplex:
    """The cellular differential, sparse over cell ids.

    dims[i] is the dimension of cell i, and columns[i] lists the
    (facet id, orientation sign) pairs of cell i: the nonzero entries of
    the differential's column for that cell.
    """

    dims: tuple[int, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]


def chain_complex(X: LabeledComplex) -> ChainComplex:
    """The differential of X; every facet label must divide its cell label."""
    cells = X.cells
    for c in cells:
        top = c.label.exps
        for fid, _ in c.facets:
            if not all(map(le, cells[fid].label.exps, top)):
                raise ValueError(
                    f"facet label {cells[fid].label} does not divide cell label {c.label}"
                )
    return ChainComplex(
        dims=tuple(c.dim for c in cells), columns=tuple(c.facets for c in cells)
    )


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
    return _residual_homology(chain_complex(X), range(len(X.cells)), X.dim, fld)


def _reduced_dims(f: list[int], ranks: list[int]) -> tuple[int, ...]:
    """(H_{-1}, ..., H_top) of a nonempty complex from its f-vector and the
    ranks of its boundary maps in dimensions 1..top."""
    ranks = [1] + ranks + [0]  # the augmentation C_0 -> k has rank 1
    return (0,) + tuple(f[i] - ranks[i] - ranks[i + 1] for i in range(len(f)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" or "fail"
    degree: str | None = None
    witness: dict | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class ResolutionReport:
    ok: bool
    field: str
    checks: tuple[CheckResult, ...]
    subject: LabeledComplex | None = field(default=None, compare=False, repr=False)
    degrees: tuple = field(default=(), compare=False, repr=False)  # exponent tuples

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "field": self.field,
            "checks": [c.as_dict() for c in self.checks],
        }


def _acyclicity_checks(
    X: LabeledComplex, C: ChainComplex, fld: Field, degrees
) -> list[CheckResult]:
    """One check per degree of X, whose differential is C: select, then
    collapse onto a passed lower selection, or else collapse and eliminate
    (module docstring)."""
    cells = X.cells  # cell ids are positions, ordered by dimension
    facets = [[fid for fid, _ in col] for col in C.columns]
    comask = [0] * len(cells)
    for i, fids in enumerate(facets):
        for fid in fids:
            comask[fid] |= 1 << i
    # below[v][k]: cells whose label has exponent at most k in variable v
    below = _below_masks([c.label.exps for c in cells], X.n)

    everything = (1 << len(cells)) - 1
    passed: set[int] = set()  # selections certified acyclic
    checks = []
    for b in degrees:
        live = everything
        for masks, e in zip(below, b):
            if e < len(masks) - 1:
                live &= masks[e]
        # X_{<=a} for a lower cover a of b, decided earlier in degree order
        lower = max(
            (live & masks[e - 1] for masks, e in zip(below, b) if e),
            default=0,
        )
        if lower in passed and _collapse(live, lower, comask, facets) == lower:
            dims = ()  # collapses onto an acyclic selection: module docstring
        else:
            # never void: b is divisible by an atom, a vertex label of X
            top = C.dims[live.bit_length() - 1]
            residue = _collapse(live, 0, comask, facets)
            if residue & (residue - 1) == 0:
                dims = (0,) * (top + 2)
            else:
                dims = _residual_homology(C, _bits(residue), top, fld)
        ok = not any(dims)
        witness = None
        if ok:
            passed.add(live)
        else:
            witness = {
                "reduced_homology": list(dims),
                "first_nonzero": next(i - 1 for i, h in enumerate(dims) if h != 0),
            }
        checks.append(
            CheckResult(
                name="acyclic",
                status="pass" if ok else "fail",
                degree=_exps_text(b),
                witness=witness,
            )
        )
    return checks


def _collapse(
    live: int, lower: int, comask: list[int], facets: list[list[int]]
) -> int:
    """The cells left of a face-closed selection after elementary collapses
    whose free face lies outside its face-closed subcomplex `lower`.

    Every coface of a cell outside `lower` is outside it too, so the free
    faces and their coface counts all live in live ^ lower.
    """
    part = live ^ lower
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
    return part | lower


def _residual_homology(C: ChainComplex, residue, top: int, fld: Field):
    """Reduced homology of the face-closed subcomplex on the residual cell
    ids (collapses keep a selection face-closed), ranked densely."""
    by_dim: list[list[int]] = [[] for _ in range(top + 1)]
    for i in residue:
        by_dim[C.dims[i]].append(i)
    ranks = []
    for d in range(1, top + 1):
        row = {i: r for r, i in enumerate(by_dim[d - 1])}
        mat = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, i in enumerate(by_dim[d]):
            for fid, sign in C.columns[i]:
                mat[row[fid]][j] = sign
        ranks.append(fld.rank(mat))
    return _reduced_dims([len(ids) for ids in by_dim], ranks)


def verify_resolution(
    X: LabeledComplex,
    I: BorelIdeal,
    fld: Field = Field.rationals(),
) -> ResolutionReport:
    """Check that the complex supports a resolution of I.

    Verifies the squared differential and, for every lcm-lattice degree b
    above the bottom (top included), that the label-restricted subcomplex
    has zero reduced homology.  Degrees are checked serially in a fixed
    order.
    """
    # the 0-cells carry the vertex labels, already built
    if {c.label for c in X.cells if not c.dim} != I.expanded:
        raise ValueError("vertex labels differ from the minimal generators")
    C = chain_complex(X)
    checks = [
        CheckResult(
            name="boundary_squared_zero",
            status="pass" if check_boundary_squared_zero(C) else "fail",
        )
    ]
    # the unit is the only degree-0 element, so it sorts first
    degrees = build_lattice(I).exps[1:]
    checks += _acyclicity_checks(X, C, fld, degrees)
    ok = all(c.status == "pass" for c in checks)
    return ResolutionReport(
        ok=ok, field=str(fld), checks=tuple(checks), subject=X, degrees=degrees
    )


def check_minimal(X: LabeledComplex) -> bool:
    """True iff no cell has a facet carrying the same label."""
    cells = X.cells
    for c in cells:
        for fid, _ in c.facets:
            if cells[fid].label == c.label:
                return False
    return True


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
    table: dict[tuple[int, Monomial], int] = {}
    for c in X.cells:
        key = (c.dim, c.label)
        table[key] = table.get(key, 0) + 1
    return table


def betti_totals(table: dict[tuple[int, Monomial], int]) -> tuple[int, ...]:
    """Collapse a graded Betti table to total numbers (beta_0, beta_1, ...)."""
    if not table:
        return ()
    top = max(i for i, _ in table)
    out = [0] * (top + 1)
    for (i, _), v in table.items():
        out[i] += v
    return tuple(out)
