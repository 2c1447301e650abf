"""Helpers the package does not ship, kept here for the tests that use
them: lcm, right-lex comparison and enumeration of the monomials of one
degree, a seeded random Borel ideal, the closure under exchange moves and
every Borel ideal generated in one degree built from it, a label scaling of
a complex, the scan-and-BFS `finalize_reference` that
`LabeledComplex._finalize` replaced, the per-degree cell selection
`and_select` that the acyclicity kernel's lattice walk replaced, the
factor-by-factor label text `exps_text_loop` that the table of factor texts
replaced, a recorder of the writes to files opened for writing, and the
rows of a verify report's checks, rebuilt from the report's fields."""
import builtins
import functools
import itertools
import random

from borelcell.borel import BorelIdeal
from borelcell.complexes import Cell, LabeledComplex
from borelcell.monomials import Monomial, canonical_key, rlex_key


def lcm(a: Monomial, b: Monomial) -> Monomial:
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    return Monomial(tuple(max(x, y) for x, y in zip(a.exps, b.exps)))


def lcm_many(ms) -> Monomial:
    ms = list(ms)
    if not ms:
        raise ValueError("lcm of no monomials is undefined without an ambient")
    return functools.reduce(lcm, ms)


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


def monomials_of_degree(n: int, d: int):
    """Yield every degree-d monomial of k[x1..xn], deterministically ordered."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        yield Monomial(tuple(exps))


def random_borel_minimal(n, d, s, seed):
    """Seeded random Borel ideal: s uniform degree-d draws, minimalized."""
    if s < 1:
        raise ValueError("need at least one draw")
    rng = random.Random(seed)
    pool = list(monomials_of_degree(n, d))
    picks = [pool[rng.randrange(len(pool))] for _ in range(s)]
    return BorelIdeal.from_borel_gens(n, picks)


def move_closure(mono):
    """Independent oracle: transitive closure under exchange moves."""
    seen = {mono}
    frontier = [mono]
    while frontier:
        cur = frontier.pop()
        for t in range(2, cur.n + 1):
            if cur.exps[t - 1] == 0:
                continue
            for s in range(1, t):
                nxt = cur.borel_move(t, s)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return frozenset(seen)


def all_borel_ideals(n, d):
    """Every Borel fixed set of degree-d monomials, as unions of principal pieces."""
    pieces = {move_closure(g) for g in monomials_of_degree(n, d)}
    found, frontier = set(pieces), list(pieces)
    while frontier:
        cur = frontier.pop()
        for piece in pieces:
            if not piece <= cur and cur | piece not in found:
                found.add(cur | piece)
                frontier.append(cur | piece)
    return sorted(found, key=lambda S: sorted(canonical_key(g) for g in S))


def scale_labels(X, mu):
    """Multiply every vertex label by mu (a relabeling, not a subdivision)."""
    return LabeledComplex(
        X.n, {frozenset(v * mu for v in f): d for f, d in X.faces.items()}
    )


def finalize_reference(X):
    """The cells of X as `LabeledComplex._finalize` found them before it
    worked on vertex stars and ridge masks: the faces of a cell are sought
    among the cells whose lowest vertex lies in it, and the signs of a built
    complex are derived by a breadth-first walk of each cell's facet-ridge
    graph.  Same checks, same messages, same cells; X._signs, when present,
    is read in the per-cell form {cell mask: {facet mask: sign}}."""
    dims, verts = X._dims, X._verts
    verts_of = {
        f: tuple(i for i in range(len(verts)) if f >> i & 1) for f in dims
    }
    keys = sorted(dims, key=verts_of.__getitem__)
    keys.sort(key=dims.__getitem__)
    fv = X.f_vector()
    edges = range(sum(fv[:1]), sum(fv[:2]))
    low = [{} for _ in range(X.dim + 1)]
    for i, f in enumerate(keys):
        low[dims[f]].setdefault(verts_of[f][0], []).append(i)

    def inside(i, d):
        f = keys[i]
        by_low = low[d]
        return [
            t for v in verts_of[f] for t in by_low.get(v, ()) if not keys[t] & ~f
        ]

    facets = [[] for _ in keys]
    for i in range(edges.start, len(keys)):
        d = dims[keys[i]]
        facets[i] = fs = inside(i, d - 1)
        if len(fs) < d + 1:
            raise ValueError(
                f"cell {X._name(keys[i])} of dimension {d} has only {len(fs)} facets"
            )

    if X._signs is None:
        derive, sign = True, [{} for _ in keys]
    else:
        derive = False
        supplied = {(f, t): s for f, sg in X._signs.items() for t, s in sg.items()}
        missing = object()
        sign = [
            {t: supplied.get((f, keys[t]), missing) for t in fs}
            for f, fs in zip(keys, facets)
        ]
        if sum(map(len, X._signs.values())) != sum(map(len, facets)) or any(
            missing in sg.values() for sg in sign
        ):
            raise ValueError("signs do not match the face relation")
        if any(type(s) is not int or s not in (1, -1) for s in supplied.values()):
            raise ValueError("signs must be +1 or -1")

    for e in edges:
        u, v = facets[e]
        if derive:
            sign[e] = {u: 1, v: -1}
        elif sign[e][u] + sign[e][v] != 0:
            raise ValueError("edge endpoint signs must be opposite units")
    for c in range(edges.stop, len(keys)):
        ridges = len(inside(c, dims[keys[c]] - 2))
        fs = facets[c]
        ridge_facets = {}
        for t in fs:
            for r in facets[t]:
                ridge_facets.setdefault(r, []).append(t)
        if len(ridge_facets) != ridges or any(
            len(v) != 2 for v in ridge_facets.values()
        ):
            raise ValueError(f"diamond property fails inside cell {X._name(keys[c])}")
        sc = sign[c]
        if derive:
            adj = {t: [] for t in fs}
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
                    f"facet-ridge graph of cell {X._name(keys[c])} is disconnected"
                )
        for r, (t1, t2) in ridge_facets.items():
            if sc[t1] * sign[t1][r] + sc[t2] * sign[t2][r] != 0:
                raise ValueError(
                    f"orientation contradiction inside cell {X._name(keys[c])}"
                )

    def label(f):
        return Monomial(
            tuple(max(verts[i][j] for i in verts_of[f]) for j in range(X.n))
        )

    return tuple(
        Cell(i, dims[f], verts_of[f], label(f),
             tuple((t, sign[i][t]) for t in facets[i]))
        for i, f in enumerate(keys)
    )


def and_select(below, b):
    """The cells whose label divides x^b, selected as the acyclicity kernel
    did before its lattice walk carried the selection: the AND of the
    "exponent <= b_v" masks below[v][b_v], skipping every v where b_v
    reaches the largest exponent, whose mask holds every cell."""
    live = below[0][-1]
    for masks, e in zip(below, b):
        if e < len(masks) - 1:
            live &= masks[e]
    return live


def exps_text_loop(e, letters=False):
    """Text form of an exponent tuple as `monomials._exps_text` wrote it
    before it looked its factor texts up: each factor formatted anew."""
    parts = []
    for i, k in enumerate(e):
        if k:
            name = "abcdefghijklmnopqrstuvwxyz"[i] if letters else f"x{i + 1}"
            parts.append(name if k == 1 else f"{name}^{k}")
    return "*".join(parts) or "1"


def record_writes(monkeypatch):
    """The texts passed to each write of a file opened for writing while
    monkeypatch is active, in order."""
    writes, real_open = [], builtins.open

    class Recorded:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def recording_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Recorded(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", recording_open)
    return writes


def acyclic_rows(report):
    """(degree, status, witness or None) for each degree of a verify report,
    in the report's order; every failure is at one of its degrees."""
    assert report.failures.keys() <= set(report.degrees)
    return [
        (b, "fail" if b in report.failures else "pass", report.failures.get(b))
        for b in report.degrees
    ]


def report_checks(report):
    """The checks that `verify --report` lists before `minimal`, as json.loads
    reads them, rebuilt from a report's boundary verdict, degrees and
    failures."""
    bsq = "pass" if report.boundary_squared_zero else "fail"
    checks = [{"name": "boundary_squared_zero", "status": bsq}]
    for b, status, witness in acyclic_rows(report):
        row = {"degree": Monomial(b).canonical(), "name": "acyclic", "status": status}
        if witness is not None:
            row["witness"] = witness
        checks.append(row)
    return checks
