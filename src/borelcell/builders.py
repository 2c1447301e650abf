"""Recursive builders for the resolving cell complexes.

power_complex(n, rng, d) is the polytopal subdivision whose vertices are
the degree-d monomials in the variables of rng; it supports the minimal
resolution of the d-th power of the variable-range ideal.  It is built by
induction on d: the degree-(d+1) complex over x_lo..x_hi is the union over
k of (simplex on x_lo..x_k) x (degree-d complex over x_k..x_hi).

principal_complex(n, m) resolves the smallest Borel fixed ideal containing
m.  It follows the monomial-times-power decomposition of the ideal: each
summand N_k * (x_k..x_top)^{d_s} contributes the product of the complex for
N_k with a power complex, all glued by union.  The two degenerate shapes
skip the decomposition: a pure power is a power complex, and a leading
x1-power factors out as a plain relabeling.

borel_complex(I) glues the principal complexes of the Borel generators;
induced_complex(I) instead carves the vertex-spanned subcomplex out of the
ambient power complex.  The two must agree cell for cell.
"""
from __future__ import annotations

from functools import cache

from .borel import BorelIdeal, PrincipalForm, principal_decomposition
from .complexes import (
    LabeledComplex,
    product,
    scale_labels,
    simplex,
    spanned_subcomplex,
    union,
)
from .monomials import Monomial, VarRange, variable

__all__ = [
    "power_complex",
    "principal_complex",
    "borel_complex",
    "induced_complex",
]


@cache
def _power(n: int, lo: int, hi: int, d: int) -> LabeledComplex:
    if d == 1:
        return simplex([variable(n, i) for i in range(lo, hi + 1)])
    if lo == hi:
        return simplex([Monomial(tuple(d if j == lo - 1 else 0 for j in range(n)))])
    return union(
        *(
            product(
                simplex([variable(n, i) for i in range(lo, k + 1)]),
                _power(n, k, hi, d - 1),
            )
            for k in range(lo, hi + 1)
        )
    )


def power_complex(n: int, rng: VarRange, d: int) -> LabeledComplex:
    """Subdivision resolving (x_lo, ..., x_hi)^d inside k[x1..xn]."""
    if rng.hi > n:
        raise ValueError(f"range {rng} exceeds ambient 1..{n}")
    if d < 1:
        raise ValueError("power must be at least 1")
    return _power(n, rng.lo, rng.hi, d)


@cache
def _principal(n: int, exps: tuple[int, ...]) -> LabeledComplex:
    m = Monomial(exps)
    pf = PrincipalForm.from_monomial(m)
    if pf.s == 1:
        return power_complex(n, VarRange(1, pf.lambdas[0]), pf.ds[0])
    if pf.lambdas[-2] == 1:
        # leading pure x1-power: relabel the power complex of the tail
        head = Monomial(tuple(pf.ds[0] if j == 0 else 0 for j in range(n)))
        tail = power_complex(n, VarRange(1, pf.lambdas[1]), pf.ds[1])
        return scale_labels(tail, head)
    return union(
        *(
            product(
                _principal(n, nk.monomial(n).exps),
                power_complex(n, rng, pf.ds[-1]),
            )
            for nk, rng in principal_decomposition(pf)
        )
    )


def principal_complex(n: int, m: Monomial) -> LabeledComplex:
    """Complex resolving the smallest Borel fixed ideal containing m."""
    if m.n != n:
        raise ValueError("ambient mismatch")
    if m.is_unit:
        raise ValueError("unit monomial has no resolving complex")
    X = _principal(n, m.exps)
    if set(X.vertex_labels) != BorelIdeal.from_borel_gens(n, [m]).expanded:
        raise ValueError(f"vertices of the principal complex of {m} are not G(I)")
    return X


def borel_complex(I: BorelIdeal) -> LabeledComplex:
    """Union of the principal complexes over the Borel generators of I."""
    out = union(*(principal_complex(I.n, g) for g in I.borel_gens))
    if set(out.vertex_labels) != I.expanded:
        raise ValueError(f"vertices of the complex of {I} are not G(I)")
    return out


def induced_complex(I: BorelIdeal) -> LabeledComplex:
    """Subcomplex of the ambient power complex spanned by G(I)."""
    ambient = power_complex(I.n, VarRange(1, I.n), I.d)
    return spanned_subcomplex(ambient, I.expanded)
