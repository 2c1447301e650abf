"""Reference answers computed from first principles, without borelcell.

Monomials are exponent tuples.  Everything here is deliberately naive and
shares no code with the package under test: Borel fixed ideals are
enumerated as exchange-closed sets of degree-d monomials, generating sets
come from a breadth-first closure under exchange moves, Betti totals from
the Eliahou-Kervaire count, and lcm lattices from a plain lcm closure whose
cover relation is read off the definition (minimal elements strictly above).
"""
from __future__ import annotations

import itertools
import re
from math import comb

_LETTERS = "abcd"
_FACTOR = re.compile(r"(?:x([0-9]+)|([a-d]))(?:\^([0-9]+))?")


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d exponent tuples in n variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def moves(m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Single exchange moves x_t -> x_s (s < t) applied to m."""
    out = []
    for t in range(1, len(m)):
        if m[t]:
            for s in range(t):
                e = list(m)
                e[t] -= 1
                e[s] += 1
                out.append(tuple(e))
    return out


def closure(gens) -> frozenset[tuple[int, ...]]:
    """Everything reachable from gens by exchange moves (degrees kept)."""
    seen = set(gens)
    todo = list(seen)
    while todo:
        for c in moves(todo.pop()):
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return frozenset(seen)


def borel_gens(ideal) -> tuple[tuple[int, ...], ...]:
    """Elements of an exchange-closed set that no other element moves to."""
    reached = {c for m in ideal for c in moves(m)}
    return tuple(sorted(m for m in ideal if m not in reached))


def borel_ideals(n: int, d: int) -> list[frozenset[tuple[int, ...]]]:
    """Every nonempty exchange-closed set of degree-d monomials.

    Monomials are added in increasing order of sum(i * e_i), which every
    exchange move decreases, so each closed set is produced exactly once:
    m may join S only when all of its single moves already lie in S.
    """
    order = sorted(monomials(n, d), key=lambda m: (sum(i * e for i, e in enumerate(m)), m))
    sets: list[frozenset] = [frozenset()]
    for m in order:
        need = moves(m)
        sets += [s | {m} for s in sets if all(c in s for c in need)]
    return [s for s in sets if s]


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def lcm(a, b) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def minimal(ms) -> frozenset[tuple[int, ...]]:
    ms = set(ms)
    return frozenset(m for m in ms if not any(g != m and divides(g, m) for g in ms))


def generators(borel) -> frozenset[tuple[int, ...]]:
    """Minimal generators of the Borel ideal of mixed-degree Borel generators."""
    return minimal(closure(borel))


def max_index(m) -> int:
    return max(i + 1 for i, e in enumerate(m) if e)


def ek_totals(gens) -> tuple[int, ...]:
    """Eliahou-Kervaire total Betti numbers: sum of C(max_index(m) - 1, i)."""
    top = max(max_index(g) for g in gens)
    return tuple(
        sum(comb(max_index(g) - 1, i) for g in gens) for i in range(top)
    )


def lattice(gens) -> frozenset[tuple[int, ...]]:
    """The lcm lattice: every lcm of a nonempty subset, plus the unit."""
    atoms = list(minimal(gens))
    elements = set(atoms)
    frontier = set(atoms)
    while frontier:
        fresh = {lcm(m, a) for m in frontier for a in atoms} - elements
        elements |= fresh
        frontier = fresh
    elements.add((0,) * len(atoms[0]))
    return frozenset(elements)


def interval_chains(elements, lo, hi) -> list[tuple[tuple[int, ...], ...]]:
    """Maximal chains of [lo, hi], covers taken straight from the definition."""
    inside = [e for e in elements if divides(lo, e) and divides(e, hi)]

    def covers(m):
        above = [e for e in inside if e != m and divides(m, e)]
        return [e for e in above if not any(f != e and divides(f, e) for f in above)]

    out = []

    def walk(chain):
        if chain[-1] == hi:
            out.append(tuple(chain))
            return
        for c in covers(chain[-1]):
            walk(chain + [c])

    walk([lo])
    return out


def chain_labels(chain) -> tuple[int, ...]:
    """Label each cover step by the largest variable index entering."""
    return tuple(
        max_index(tuple(y - x for x, y in zip(a, b))) for a, b in zip(chain, chain[1:])
    )


def fmt(m) -> str:
    """x<i> spelling, accepted by the command line for any ring."""
    parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
    return "*".join(parts) or "1"


def parse(text: str, n: int) -> tuple[int, ...]:
    """Read a printed monomial: x<i> or letter spelling, '*' optional."""
    e = [0] * n
    text = text.strip()
    if text == "1":
        return tuple(e)
    for part in text.split("*"):
        pos = 0
        while pos < len(part):
            hit = _FACTOR.match(part, pos)
            if hit is None:
                raise ValueError(f"cannot read monomial {text!r}")
            idx = int(hit.group(1)) if hit.group(1) else _LETTERS.index(hit.group(2)) + 1
            e[idx - 1] += int(hit.group(3) or 1)
            pos = hit.end()
    return tuple(e)
