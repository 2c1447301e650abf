"""Exact monomial arithmetic in a fixed ambient ring k[x1..xn].

Monomials are exponent vectors.  Besides products, lcm and divisibility,
this module provides the two pieces of structure everything else is built
on: the exchange move x_t -> x_s (s < t) that defines Borel fixed ideals,
and the right-lex comparison used to order monomials of equal degree.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

__all__ = [
    "Monomial",
    "VarRange",
    "variable",
    "unit",
    "lcm",
    "lcm_many",
    "suffix_sums",
    "rlex_cmp",
    "rlex_key",
    "canonical_key",
    "parse_monomial",
    "monomials_of_degree",
    "minimal_under_divisibility",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_FACTOR_RE = re.compile(r"(?:x([0-9]+)|([a-z]))(?:\^([0-9]+))?")


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial x1^e1 * ... * xn^en given by its exponent vector."""

    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.exps, tuple):
            object.__setattr__(self, "exps", tuple(self.exps))
        if len(self.exps) < 1:
            raise ValueError("ambient ring needs at least one variable")
        if any(not isinstance(e, int) or e < 0 for e in self.exps):
            raise ValueError(f"exponents must be non-negative integers: {self.exps!r}")

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def max_index(self) -> int:
        """Largest i (1-based) with x_i | self.  Undefined for the unit."""
        for i in range(self.n - 1, -1, -1):
            if self.exps[i] > 0:
                return i + 1
        raise ValueError("max_index of the unit monomial is undefined")

    def borel_move(self, t: int, s: int) -> "Monomial":
        """The exchange move (self / x_t) * x_s; requires s < t and x_t | self."""
        if not (1 <= s < t <= self.n):
            raise ValueError(f"need 1 <= s < t <= {self.n}, got s={s}, t={t}")
        if self.exps[t - 1] == 0:
            raise ValueError(f"x{t} does not divide {self}")
        e = list(self.exps)
        e[t - 1] -= 1
        e[s - 1] += 1
        return Monomial(tuple(e))

    def canonical(self) -> str:
        """Canonical text form, always in x<i> notation (x1^2*x3)."""
        return self._format(letters=False)

    def _format(self, letters: bool) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 0:
                continue
            name = _LETTERS[i] if letters else f"x{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        # letters match the usual small-case notation, x<i> beyond four vars
        return self._format(letters=self.n <= 4)

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


@dataclass(frozen=True, slots=True)
class VarRange:
    """The inclusive 1-based variable range x_lo .. x_hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"need 1 <= lo <= hi, got lo={self.lo}, hi={self.hi}")

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def __len__(self) -> int:
        return self.hi - self.lo + 1


def variable(n: int, i: int) -> Monomial:
    """The monomial x_i inside k[x1..xn]."""
    if not (1 <= i <= n):
        raise ValueError(f"variable index {i} outside 1..{n}")
    return Monomial(tuple(1 if j == i - 1 else 0 for j in range(n)))


def unit(n: int) -> Monomial:
    return Monomial((0,) * n)


def lcm(a: Monomial, b: Monomial) -> Monomial:
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    return Monomial(tuple(max(x, y) for x, y in zip(a.exps, b.exps)))


def lcm_many(ms) -> Monomial:
    ms = list(ms)
    if not ms:
        raise ValueError("lcm of no monomials is undefined without an ambient")
    out = ms[0]
    for m in ms[1:]:
        out = lcm(out, m)
    return out


def suffix_sums(m: Monomial) -> tuple[int, ...]:
    """s[i] = e_{i+1} + ... + e_n for 0-based i; s[0] is the degree."""
    out = [0] * m.n
    acc = 0
    for i in range(m.n - 1, -1, -1):
        acc += m.exps[i]
        out[i] = acc
    return tuple(out)


def rlex_key(m: Monomial) -> tuple[int, ...]:
    """Sorting by this key ascending lists equal-degree monomials rlex-descending."""
    return tuple(reversed(m.exps))


def canonical_key(m: Monomial) -> tuple:
    """Total order across degrees: by degree, then rlex-descending within a degree."""
    return (m.degree, rlex_key(m))


def rlex_cmp(a: Monomial, b: Monomial) -> int:
    """+1 if a comes before b in right-lex (a > b), -1 if after, 0 if equal.

    a > b exactly when the rightmost nonzero entry of exps(a) - exps(b) is
    negative.  Only defined for equal degrees.
    """
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    if a.degree != b.degree:
        raise ValueError("rlex compares monomials of equal degree only")
    ka, kb = rlex_key(a), rlex_key(b)
    if ka == kb:
        return 0
    return 1 if ka < kb else -1


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse '1' or factor (* factor)*, factor = (x<int> | letter)(^<int>)?.

    Whitespace is ignored.  Letters a..z alias x1..x26, and juxtaposed
    letter factors need no '*' (bc, ad^2).
    """
    if n < 1:
        raise ValueError("ambient ring needs at least one variable")
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty monomial")
    if s == "1":
        return unit(n)
    exps = [0] * n
    for part in s.split("*"):
        pos = 0
        while pos < len(part):
            mobj = _FACTOR_RE.match(part, pos)
            if mobj is None:
                raise ValueError(f"bad factor {part!r} in {text!r}")
            xi, letter, power = mobj.groups()
            idx = int(xi) if xi is not None else _LETTERS.index(letter) + 1
            if not (1 <= idx <= n):
                raise ValueError(
                    f"variable index {idx} outside ambient 1..{n} in {text!r}"
                )
            exps[idx - 1] += 1 if power is None else int(power)
            pos = mobj.end()
        if pos == 0:
            raise ValueError(f"bad factor {part!r} in {text!r}")
    return Monomial(tuple(exps))


def monomials_of_degree(n: int, d: int):
    """Yield every degree-d monomial of k[x1..xn], deterministically ordered."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        yield Monomial(tuple(exps))


def minimal_under_divisibility(ms) -> tuple[Monomial, ...]:
    """Monomials of ms not strictly divisible by another element, canonically sorted.

    A strict divisor has lower degree, and a non-minimal one is itself
    divisible by a kept element, so each element is tested only against
    the elements kept from lower degrees: a one-degree input costs a sort.
    """
    ms = set(ms)
    if len({m.n for m in ms}) > 1:
        raise ValueError("ambient mismatch")
    keep: list[Monomial] = []
    lower = 0  # keep[:lower] are the kept elements of lower degree
    for m in sorted(ms, key=canonical_key):
        if keep and keep[-1].degree < m.degree:
            lower = len(keep)
        if not any(g.divides(m) for g in keep[:lower]):
            keep.append(m)
    return tuple(keep)
