"""Acceptance battery: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
lines.  Every derived value is checked against an independent oracle built
from first principles in this file or in the koszul module, never against
the code path that produced it.
"""
import itertools
import random
import time

from borelcell.borel import (
    BorelIdeal,
    borel_generators,
    eliahou_kervaire_betti,
    expand_principal,
    intersect_borel,
    min_monomial,
    random_borel_minimal,
)
from borelcell.builders import (
    borel_complex,
    induced_complex,
    power_complex,
    principal_complex,
)
from borelcell.cli import main
from borelcell.complexes import LabeledComplex
from borelcell.koszul import betti_via_koszul
from borelcell.lattice import build_lattice, is_ranked, natural_label_check
from borelcell.monomials import (
    Monomial,
    VarRange,
    canonical_key,
    lcm,
    minimal_under_divisibility,
    monomials_of_degree,
    parse_monomial,
    unit,
)
from borelcell.resolution import (
    betti_from_cells,
    betti_totals,
    chain_complex,
    check_boundary_squared_zero,
    check_minimal,
    verify_resolution,
)


def m(text, n=3):
    return parse_monomial(text, n)


def move_closure(mono):
    """All monomials reachable from mono by exchange moves; brute oracle."""
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
    return seen


def random_monomial(rng, n, d):
    exps = [0] * n
    for i in rng.choices(range(n), k=d):
        exps[i] += 1
    return Monomial(tuple(exps))


def test_criterion_1_principal_expansion(capsys):
    start = time.monotonic()
    out = main(["gen", "--vars", "3", "--borel", "bc"])
    assert out == 0
    assert capsys.readouterr().out.splitlines() == [
        "a^2", "a*b", "b^2", "a*c", "b*c"
    ]
    checked = 0
    for n in range(1, 5):
        for d in range(1, 6):
            for mono in monomials_of_degree(n, d):
                assert set(expand_principal(mono).expanded) == move_closure(mono)
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 205
    assert elapsed < 10.0
    print(
        f"criterion 1 PASS: expansion = move closure on {checked} principal "
        f"ideals (n<=4, d<=5) in {elapsed:.2f}s"
    )


def test_criterion_2_min_monomial():
    assert min_monomial(m("b^5*c"), m("a*b^3*c^2")) == m("a*b^4*c")
    assert min_monomial(m("b^5*c"), m("a^2*c^4")) == m("a^2*b^3*c")
    rng = random.Random(20260817)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        d = rng.randint(1, 5)
        u, v = random_monomial(rng, n, d), random_monomial(rng, n, d)
        left = expand_principal(u).expanded
        right = expand_principal(v).expanded
        direct = set(left) & set(right)
        pairwise = (lcm(a, b) for a in left for b in right)
        brute = set(minimal_under_divisibility(pairwise))
        via_min = set(expand_principal(min_monomial(u, v)).expanded)
        if not (via_min == direct == brute):
            mismatches += 1
    assert mismatches == 0
    print(
        "criterion 2 PASS: min of two principal ideals matches the "
        "brute-force intersection on both worked pairs and 200 random pairs"
    )


def test_criterion_3_borel_intersection():
    J = BorelIdeal.from_borel_gens(
        4, [m("a^2*b^4*c*d^2", 4), m("a^3*b*c^2*d^3", 4)]
    )
    out = intersect_borel(m("a*b^4*c^3*d", 4), J)
    assert set(out.borel_gens) == {m("a^2*b^4*c^2*d", 4), m("a^3*b^2*c^3*d", 4)}
    assert len(out.borel_gens) == 2
    print(
        "criterion 3 PASS: four-variable intersection has exactly the two "
        "expected Borel generators"
    )


def test_criterion_4_power_complexes():
    start = time.monotonic()
    for n, d in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        X = power_complex(n, VarRange(1, n), d)
        I = expand_principal(Monomial((0,) * (n - 1) + (d,)))
        assert check_boundary_squared_zero(chain_complex(X))
        report = verify_resolution(X, I)
        assert report.ok
        assert check_minimal(X)
        cellular = betti_from_cells(X, report)
        assert cellular == betti_via_koszul(I.expanded)
        totals = betti_totals(cellular)
        assert totals == eliahou_kervaire_betti(I)
        fv = X.f_vector()
        assert sum((-1) ** i * c for i, c in enumerate(fv)) == 1
        if (n, d) == (3, 2):
            assert fv == (6, 8, 3)
        if (n, d) == (4, 2):
            assert fv == (10, 20, 15, 4)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        "criterion 4 PASS: five power complexes verified (boundary, "
        f"acyclicity, minimality, three-way Betti agreement) in {elapsed:.1f}s"
    )


def test_criterion_5_principal_complexes():
    corpus = [("bc", 3), ("b*d^2", 4), ("bcd", 4), ("b^5*c", 3), ("c^2*d", 4)]
    for text, n in corpus:
        mono = parse_monomial(text, n)
        I = expand_principal(mono)
        X = principal_complex(n, mono)
        Y = induced_complex(I)
        assert X == Y and X.cells == Y.cells
        report = verify_resolution(X, I)
        assert report.ok and check_minimal(X)
        if text == "bc":
            assert X.f_vector() == (5, 6, 2)
    print(
        "criterion 5 PASS: recursive and extracted complexes agree "
        "cell-for-cell and verify on all five corpus ideals"
    )


def test_criterion_6_random_borel_complexes():
    rng = random.Random(1729)
    for _ in range(25):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        s = rng.randint(1, 3)
        I = random_borel_minimal(n, d, s, seed=rng.randint(0, 10**6))
        X = borel_complex(I)
        Y = induced_complex(I)
        assert X == Y and X.cells == Y.cells
        report = verify_resolution(X, I)
        assert report.ok and check_minimal(X)
        cellular = betti_from_cells(X, report)
        assert cellular == betti_via_koszul(I.expanded)
        assert betti_totals(cellular) == eliahou_kervaire_betti(I)
    print(
        "criterion 6 PASS: 25 random Borel ideals, union complex = "
        "extraction, all verified with three-way Betti agreement"
    )


def test_criterion_7_negative_control():
    X = power_complex(3, VarRange(1, 3), 2)
    square = next(f for f, d in X.faces.items() if d == 2 and len(f) == 4)
    broken = LabeledComplex(3, {f: d for f, d in X.faces.items() if f != square})
    I = expand_principal(m("c^2"))
    report = verify_resolution(broken, I)
    assert not report.ok
    failing = [c for c in report.checks if c.status == "fail"]
    hole = m("a*b^2*c")
    lattice_degrees = [
        b for b in build_lattice(I).sorted_elements if not b.is_unit
    ]
    expected = {b.canonical() for b in lattice_degrees if hole.divides(b)}
    assert {c.degree for c in failing} == expected
    # the divisibility-least failure is the label of the deleted square
    assert min(
        (parse_monomial(c.degree, 3) for c in failing), key=canonical_key
    ) == hole
    for c in failing:
        assert c.witness["first_nonzero"] == 1
    at_hole = next(c for c in failing if c.degree == hole.canonical())
    assert at_hole.witness["reduced_homology"].count(1) == 1
    print(
        "criterion 7 PASS: deleting the square cell breaks acyclicity "
        "exactly at the degrees above a*b^2*c, with one-dimensional H_1"
    )


def test_criterion_8_lattice_rankedness():
    rng = random.Random(40961)
    for _ in range(100):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        s = rng.randint(1, 3)
        I = random_borel_minimal(n, d, s, seed=rng.randint(0, 10**6))
        assert is_ranked(build_lattice(I)).ranked

    gens = [m(t, 4) for t in ("ab", "ac", "a*d^2", "b^2*c*d^2")]
    G = borel_generators(4, gens)
    expected = {
        "a^2", "ab", "ac", "ad^2", "b^5", "b^4c", "b^3c^2", "b^2c^3",
        "b^4d", "b^3cd", "b^2c^2d", "b^3d^2", "b^2cd^2",
    }
    assert set(G) == {m(t, 4) for t in expected} and len(G) == 13
    L = build_lattice(list(G))
    report = is_ranked(L)
    assert not report.ranked
    lo, hi = report.witness_cover
    assert hi.degree - lo.degree >= 2

    labels = natural_label_check(L, unit(4), m("a*b^2*c*d^2", 4))
    assert labels.chains and labels.increasing == ()
    assert not any(
        all(a > b for a, b in zip(ls[::-1], ls[-2::-1])) for ls in labels.labels
    )

    final = build_lattice(
        list(borel_generators(4, [m("x1*x3^3", 4), m("x2^2*x3*x4", 4)]))
    )
    assert m("x2^2*x3^2*x4", 4) in final
    assert m("x2^2*x3^3", 4) not in final
    print(
        "criterion 8 PASS: 100 random single-degree lattices ranked; the "
        "mixed ideal is unranked with a degree-2 cover jump and no "
        "top-down decreasing chain on [1, a*b^2*c*d^2]"
    )


def test_criterion_9_determinism(tmp_path, capsys):
    mixed = ["--vars", "4", "--borel", "ab,ac,a*d^2,b^2*c*d^2"]

    def battery(root, jobs):
        root.mkdir()
        p = root / "power.json"
        q = root / "principal.json"
        rep = root / "verify.json"
        lat = root / "lattice.json"
        assert main(
            ["complex", "P", "--vars", "3", "--degree", "2", "--out", str(p)]
        ) == 0
        assert main(
            ["complex", "Q", "--vars", "4", "--borel", "b*d^2", "--out", str(q)]
        ) == 0
        assert main(
            ["verify", "--in", str(q), "--jobs", jobs, "--report", str(rep)]
        ) == 0
        assert main(["lattice", *mixed, "--check", "ranked", "--out", str(lat)]) == 1
        return [path.read_bytes() for path in (p, q, rep, lat)]

    first = battery(tmp_path / "run1", "1")
    second = battery(tmp_path / "run2", "8")
    third = battery(tmp_path / "run3", "1")
    capsys.readouterr()
    assert first == second == third
    print(
        "criterion 9 PASS: artifacts and reports byte-identical across "
        "repeat runs, directories, and --jobs 1 vs 8"
    )
