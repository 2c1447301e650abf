"""Exact rank computation over the rationals and over prime fields.

Boundary matrices here have small integer entries, so ranks over Q are
computed by fraction-free elimination on big integers (no floating point
anywhere), and ranks mod p by ordinary elimination in F_p.  Both the
resolution checks and the Koszul oracle call into this one kernel.
"""
from __future__ import annotations

from .monomials import _Value

__all__ = ["Field", "rank_rationals", "rank_mod_p", "is_prime"]


def _check_rectangular(a: list[list[int]]) -> None:
    if any(len(r) != len(a[0]) for r in a):
        raise ValueError("matrix rows must all have the same length")


def rank_rationals(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over Q by fraction-free elimination."""
    a = [list(r) for r in rows]
    _check_rectangular(a)
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        piv = next((i for i in range(rank, nrows) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, nrows):
            ai = a[i]
            ar = a[rank]
            f = ai[col]
            for j in range(col, ncols):
                ai[j] = (p * ai[j] - f * ar[j]) // prev
        prev = p
        rank += 1
        col += 1
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    a = [[v % p for v in r] for r in rows]
    _check_rectangular(a)
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        piv = next((i for i in range(rank, nrows) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(v * inv) % p for v in a[rank]]
        for i in range(rank + 1, nrows):
            f = a[i][col]
            if f:
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything we will ever see."""
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p in small:
        return True
    if any(p % q == 0 for q in small):
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in small:
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field(_Value):
    """The exact coefficient field: Q when p is None, else F_p."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int | None = None) -> None:
        if p is not None and not (type(p) is int and is_prime(p)):
            raise ValueError(f"{p!r} is not prime")
        self._init(p)

    @classmethod
    def parse(cls, text: str) -> "Field":
        t = text.strip().lower()
        if t == "q":
            return cls(None)
        if t.startswith("p:"):
            try:
                p = int(t[2:])
            except ValueError:
                pass  # not a modulus: the message below names the text
            else:
                return cls(p)
        raise ValueError(f"field must be 'q' or 'p:<prime>', got {text!r}")

    def rank(self, rows: list[list[int]]) -> int:
        if self.p is None:
            return rank_rationals(rows)
        return rank_mod_p(rows, self.p)

    def __str__(self) -> str:
        return "q" if self.p is None else f"p:{self.p}"
