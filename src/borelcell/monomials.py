"""Exact monomial arithmetic in a fixed ambient ring k[x1..xn].

Monomials are exponent vectors.  Besides products and divisibility, this
module provides the two pieces of structure everything else is built on:
the exchange move x_t -> x_s (s < t) that defines Borel fixed ideals, and
the right-lex order of monomials of equal degree.

Inside the pipeline a monomial is its exponent tuple, and a `Monomial` is
built, and validated, only where the API returns one.  This module owns
the tuple helpers: the canonical sort key `_exps_key`, the text form
`_exps_text`, the set-bit positions `_bits` of a mask and the per-variable
"exponent <= k" masks `_below_masks`, and `_Value`, the base of the
package's immutable types: plain classes, so an import generates no code.
"""
from __future__ import annotations

import itertools
import re
from operator import or_

__all__ = [
    "Monomial",
    "VarRange",
    "variable",
    "unit",
    "suffix_sums",
    "rlex_key",
    "canonical_key",
    "parse_monomial",
    "minimal_under_divisibility",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_FACTOR_RE = re.compile(r"(?:x([0-9]+)|([a-z]))(?:\^([0-9]+))?")
_FACTORS = {False: [], True: []}  # _exps_text's, by letters, variable, exponent


def _exps_key(e: tuple[int, ...]) -> tuple:
    """`canonical_key` on an exponent tuple."""
    return (sum(e), e[::-1])


def _exps_text(e: tuple[int, ...], letters: bool = False) -> str:
    """Text form of an exponent tuple: x1^2*x3, or a^2*c with letters."""
    rows = _FACTORS[letters]
    try:
        return "*".join([rows[i][k] for i, k in enumerate(e) if k]) or "1"
    except IndexError:  # a variable or an exponent met for the first time
        rows += [[""] for _ in range(len(rows), len(e))]
        for i, k in enumerate(e):
            for j in range(len(rows[i]), k + 1):
                name = _LETTERS[i] if letters else f"x{i + 1}"
                rows[i].append(name if j == 1 else f"{name}^{j}")
        return _exps_text(e, letters)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _below_masks(rows, n: int) -> list[list[int]]:
    """below[v][k]: bit j set iff rows[j] has exponent at most k in variable
    v, for k up to the largest exponent of v in rows."""
    if any(len(e) != n for e in rows):
        raise ValueError("ambient mismatch")
    below = []
    for v in range(n):
        masks = [0] * (max((e[v] for e in rows), default=0) + 1)
        for j, e in enumerate(rows):
            masks[e[v]] |= 1 << j
        below.append(list(itertools.accumulate(masks, or_)))
    return below


_set = object.__setattr__  # for __init__: _Value.__setattr__ refuses


class _Value:
    """A frozen dataclass's methods, read off the fields named in `_fields`;
    a subclass's `__init__` sets its slots once, by `_init` or `_set`."""

    __slots__ = ()

    def _init(self, *values) -> None:
        names = type(self).__dict__.get("__slots__", self._fields)
        for name, value in zip(names, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle: __init__ takes the slots in order
        names = type(self).__dict__.get("__slots__", self._fields)
        return type(self), tuple(getattr(self, f) for f in names)


class Monomial(_Value):
    """A monomial x1^e1 * ... * xn^en given by its exponent vector; unordered.
    Its hash, that of (exps,), fixes set order and so output order."""

    __slots__ = _fields = ("exps",)

    def __init__(self, exps) -> None:
        if not isinstance(exps, tuple):
            exps = tuple(exps)
        if not exps:
            raise ValueError("ambient ring needs at least one variable")
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers: {exps!r}")
        _set(self, "exps", exps)

    def __eq__(self, other):
        return self.exps == other.exps if type(other) is Monomial else NotImplemented

    def __hash__(self) -> int:
        return hash((self.exps,))

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
        return _exps_text(self.exps)

    def __str__(self) -> str:
        # letters match the usual small-case notation, x<i> beyond four vars
        return _exps_text(self.exps, letters=self.n <= 4)

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


class VarRange(_Value):
    """The inclusive 1-based variable range x_lo .. x_hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if not (1 <= lo <= hi):
            raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
        self._init(lo, hi)

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
    return _exps_key(m.exps)


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
