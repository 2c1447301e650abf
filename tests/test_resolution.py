import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from borelcell import exact, resolution
from borelcell.borel import BorelIdeal, expand_principal
from borelcell.builders import borel_complex, power_complex, principal_complex
from borelcell.complexes import Cell, LabeledComplex, _bits, restrict, simplex
from borelcell.exact import Field, rank_mod_p, rank_rationals
from borelcell.lattice import build_lattice
from borelcell.monomials import (
    VarRange,
    canonical_key,
    lcm_many,
    monomials_of_degree,
    parse_monomial,
)
from borelcell.resolution import (
    ChainComplex,
    CheckResult,
    _residual_homology,
    betti_from_cells,
    betti_totals,
    chain_complex,
    check_boundary_squared_zero,
    check_minimal,
    homology_dims,
    verify_resolution,
)
from borelcell.serialize import dict_to_complex, dumps

Q = Field.rationals()
DATA = Path(__file__).parent / "data"


def m(text, n=3):
    return parse_monomial(text, n)


def fs(texts, n=3):
    return frozenset(parse_monomial(t, n) for t in texts)


def hollow_square():
    faces = {fs(["a"], 4): 0, fs(["b"], 4): 0, fs(["c"], 4): 0, fs(["d"], 4): 0}
    for pair in (["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]):
        faces[fs(pair, 4)] = 1
    return LabeledComplex(4, faces)


def taylor_on_squares():
    # full simplex on a^2, a*b, b^2; edge {a^2, b^2} shares its label with the top cell
    return simplex([m("a^2", 2), m("a*b", 2), m("b^2", 2)])


class TestChainComplex:
    def test_structure(self):
        C = chain_complex(power_complex(2, VarRange(1, 2), 2))
        assert [len(b) for b in C.bases] == [3, 2]
        assert len(C.matrices) == 1
        assert len(C.matrices[0]) == 3
        assert all(len(r) == 2 for r in C.matrices[0])
        # each edge hits its endpoints with opposite signs
        for col in range(2):
            assert sorted(C.matrices[0][row][col] for row in range(3)) == [-1, 0, 1]

    def test_void(self):
        C = chain_complex(LabeledComplex(3, {}))
        assert C.bases == () and C.matrices == ()

    def test_boundary_squared_zero(self):
        C = chain_complex(power_complex(3, VarRange(1, 3), 2))
        assert check_boundary_squared_zero(C)

    def test_boundary_squared_nonzero_detected(self):
        bad = ChainComplex(bases=(), matrices=(((1, 1),), ((1,), (1,))))
        assert not check_boundary_squared_zero(bad)

    def test_boundary_squared_cancellation_needs_every_term(self):
        # one column of the product sums two nonzero terms; dropping or
        # double-counting either one would be noticed
        good = ChainComplex(bases=(), matrices=(((1, 1),), ((1,), (-1,))))
        assert check_boundary_squared_zero(good)
        bad = ChainComplex(bases=(), matrices=(((1, 1), (0, 1)), ((1,), (-1,))))
        assert not check_boundary_squared_zero(bad)

    def test_facet_label_must_divide_cell_label(self):
        # cells that no LabeledComplex would produce: the edge label misses b
        cells = (
            Cell(id=0, dim=0, vertices=(0,), label=m("a"), facets=()),
            Cell(id=1, dim=0, vertices=(1,), label=m("b"), facets=()),
            Cell(id=2, dim=1, vertices=(0, 1), label=m("a"), facets=((0, 1), (1, -1))),
        )
        with pytest.raises(ValueError, match="does not divide"):
            chain_complex(SimpleNamespace(cells=cells, dim=1))
        # verify checks the same divisibility on its facet lists
        stub = SimpleNamespace(cells=cells, vertex_labels=(m("a"), m("b")), n=3)
        with pytest.raises(ValueError, match="does not divide"):
            verify_resolution(stub, expand_principal(m("b")))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_verify_fails_a_flipped_facet_sign(self, dim):
        # one flip in one cell, which no LabeledComplex would accept; the
        # facet-list kernel must see the nonzero square
        X = power_complex(3, VarRange(1, 3), 2)
        cells = list(X.cells)
        c = next(c for c in cells if c.dim == dim)
        (fid, sign), *rest = c.facets
        cells[c.id] = replace(c, facets=((fid, -sign), *rest))
        stub = SimpleNamespace(cells=tuple(cells), vertex_labels=X.vertex_labels, n=X.n)
        I = expand_principal(m("c^2"))
        assert verify_resolution(X, I).checks[0].status == "pass"
        assert verify_resolution(stub, I).checks[0].as_dict() == {
            "name": "boundary_squared_zero", "status": "fail"
        }


class TestRankShape:
    @pytest.mark.parametrize(
        "rank", [rank_rationals, lambda rows: rank_mod_p(rows, 7)]
    )
    def test_ragged_rows_rejected(self, rank):
        for rows in ([[1, 2], [3]], [[], [1]]):
            with pytest.raises(ValueError, match="same length"):
                rank(rows)


class TestHomology:
    def test_solid_triangle_is_acyclic(self):
        X = simplex([m("a"), m("b"), m("c")])
        assert homology_dims(X, Q) == (0, 0, 0, 0)

    def test_hollow_square_has_a_loop(self):
        assert homology_dims(hollow_square(), Q) == (0, 0, 1)

    def test_void_and_point(self):
        assert homology_dims(LabeledComplex(3, {}), Q) == ()
        assert homology_dims(simplex([m("a")]), Q) == (0, 0)

    def test_two_points(self):
        X = LabeledComplex(3, {fs(["a"]): 0, fs(["b"]): 0})
        assert homology_dims(X, Q) == (0, 1)

    def test_mod_p_matches_rationals(self):
        p = Field.parse("p:32003")
        for X in (hollow_square(), simplex([m("a"), m("b"), m("c")])):
            assert homology_dims(X, p) == homology_dims(X, Q)


class TestVerifyResolution:
    def test_simplex_resolves_the_variables(self):
        I = expand_principal(m("c"))
        X = simplex([m("a"), m("b"), m("c")])
        report = verify_resolution(X, I)
        assert report.ok
        assert report.field == "q"
        # one boundary check plus one acyclicity check per nonunit lattice degree
        assert [c.name for c in report.checks[:1]] == ["boundary_squared_zero"]
        assert len(report.checks) == 1 + 7
        assert all(c.status == "pass" for c in report.checks)

    def test_power_complex_resolves_the_square(self):
        I = expand_principal(m("c^2"))
        X = power_complex(3, VarRange(1, 3), 2)
        report = verify_resolution(X, I)
        assert report.ok and check_minimal(X)

    def test_vertex_mismatch_rejected(self):
        I = expand_principal(m("c^2"))
        with pytest.raises(ValueError, match="vertex labels"):
            verify_resolution(simplex([m("a"), m("b"), m("c")]), I)

    def test_jobs_do_not_change_the_report(self):
        I = expand_principal(m("b*d^2", 4))
        X = principal_complex(4, m("b*d^2", 4))
        serial = verify_resolution(X, I, jobs=1)
        parallel = verify_resolution(X, I, jobs=4)
        assert serial.as_dict() == parallel.as_dict()

    def test_jobs_validated(self):
        I = expand_principal(m("c"))
        X = simplex([m("a"), m("b"), m("c")])
        for bad in (0, -1, 1.5):
            with pytest.raises(ValueError, match="jobs"):
                verify_resolution(X, I, jobs=bad)

    def test_mod_p_agrees_with_rationals(self):
        I = BorelIdeal.from_borel_gens(3, [m("b^2*c"), m("a*c^2")])
        X = borel_complex(I)
        r_q = verify_resolution(X, I)
        r_p = verify_resolution(X, I, fld=Field.parse("p:32003"))
        assert r_q.ok and r_p.ok
        assert r_p.field == "p:32003"
        assert [c.as_dict() for c in r_q.checks] == [c.as_dict() for c in r_p.checks]

    def test_detects_a_missing_cell(self):
        X = power_complex(3, VarRange(1, 3), 2)
        square = next(f for f, d in X.faces.items() if d == 2 and len(f) == 4)
        faces = {f: d for f, d in X.faces.items() if f != square}
        broken = LabeledComplex(3, faces)
        report = verify_resolution(broken, expand_principal(m("c^2")))
        assert not report.ok
        failing = [c for c in report.checks if c.status == "fail"]
        assert failing
        assert failing[0].degree == "x1*x2^2*x3"
        assert failing[0].witness["first_nonzero"] == 1


class TestMinimality:
    def test_power_complex_is_minimal(self):
        assert check_minimal(power_complex(4, VarRange(1, 4), 2))

    def test_label_repeat_is_not_minimal(self):
        X = simplex([m("a", 2), m("a*b", 2)])
        assert not check_minimal(X)

    def test_taylor_complex_resolves_but_is_not_minimal(self):
        X = taylor_on_squares()
        I = expand_principal(m("b^2", 2))
        assert verify_resolution(X, I).ok
        assert not check_minimal(X)


class TestBettiFromCells:
    def test_totals_for_the_square_ideal(self):
        I = expand_principal(m("c^2"))
        X = power_complex(3, VarRange(1, 3), 2)
        table = betti_from_cells(X, verify_resolution(X, I))
        assert betti_totals(table) == (6, 8, 3)
        for (i, b), count in table.items():
            assert count >= 1
            assert b.degree >= 2 + i

    def test_graded_entries_for_bc(self):
        I = expand_principal(m("bc"))
        X = principal_complex(3, m("bc"))
        table = betti_from_cells(X, verify_resolution(X, I))
        assert table[(0, m("bc"))] == 1
        assert table[(2, m("a*b^2*c"))] == 1
        assert betti_totals(table) == (5, 6, 2)

    def test_rejects_foreign_report(self):
        I = expand_principal(m("c^2"))
        X = power_complex(3, VarRange(1, 3), 2)
        report = verify_resolution(X, I)
        other = principal_complex(3, m("bc"))
        with pytest.raises(ValueError, match="different complex"):
            betti_from_cells(other, report)

    def test_rejects_failing_report(self):
        X = power_complex(3, VarRange(1, 3), 2)
        square = next(f for f, d in X.faces.items() if d == 2 and len(f) == 4)
        broken = LabeledComplex(3, {f: d for f, d in X.faces.items() if f != square})
        report = verify_resolution(broken, expand_principal(m("c^2")))
        with pytest.raises(ValueError, match="failed"):
            betti_from_cells(broken, report)

    def test_rejects_non_minimal_complex(self):
        X = taylor_on_squares()
        report = verify_resolution(X, expand_principal(m("b^2", 2)))
        with pytest.raises(ValueError, match="not minimal"):
            betti_from_cells(X, report)

    def test_totals_of_empty_table(self):
        assert betti_totals({}) == ()


def drop_maximal_cell(X, pick):
    """X without one of its maximal cells of positive dimension, or None."""
    cells = X.cells
    facet_ids = {fid for c in cells for fid, _ in c.facets}
    tops = [c for c in cells if c.dim > 0 and c.id not in facet_ids]
    if not tops:
        return None
    victim = tops[pick % len(tops)]
    key = frozenset(X.vertex_labels[v] for v in victim.vertices)
    return LabeledComplex(X.n, {f: d for f, d in X.faces.items() if f != key})


def oracle_check(X, I, fld, b):
    """(status, witness) of one degree from the restrict/homology_dims path."""
    dims = homology_dims(restrict(X, b), fld)
    if not dims:
        ok = not any(g.divides(b) for g in I.expanded)
        return ("pass", None) if ok else (
            "fail", {"reason": "void restriction at a degree in the ideal"}
        )
    if not any(dims):
        return "pass", None
    first = next(i - 1 for i, h in enumerate(dims) if h)
    return "fail", {"reduced_homology": list(dims), "first_nonzero": first}


def assert_matches_oracle(X, I, fld):
    report = verify_resolution(X, I, fld)
    acyc = [c for c in report.checks if c.name == "acyclic"]
    degrees = [b for b in build_lattice(I).sorted_elements if not b.is_unit]
    assert [c.degree for c in acyc] == [b.canonical() for b in degrees]
    for c, b in zip(acyc, degrees):
        assert (c.status, c.witness) == oracle_check(X, I, fld, b), c.degree
    return report


small_borel = st.integers(2, 4).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.just(n),
            st.lists(
                st.sampled_from(list(monomials_of_degree(n, d))),
                min_size=1,
                max_size=3,
            ),
        )
    )
)


class TestKernelAgainstRestrictOracle:
    """verify's select/collapse/eliminate kernel against restrict + homology_dims."""

    @given(
        small_borel,
        st.sampled_from(["q", "p:2"]),
        st.one_of(st.none(), st.integers(0, 10**6)),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_degree_matches(self, ideal, field_text, pick):
        n, gens = ideal
        I = BorelIdeal.from_borel_gens(n, gens)
        X = borel_complex(I)
        if pick is not None:
            X = drop_maximal_cell(X, pick) or X
        assert_matches_oracle(X, I, Field.parse(field_text))

    @pytest.mark.parametrize("field_text", ["q", "p:2", "p:32003"])
    def test_stuck_collapse_is_decided_by_elimination(self, monkeypatch, field_text):
        # every vertex of the hollow square has two cofaces, so nothing
        # collapses at a*b*c*d and elimination must find the loop; every
        # other degree selects a path (which collapses) or a set of
        # points (rank-free), so that is the only rank computed
        calls = []
        for name in ("rank_rationals", "rank_mod_p"):
            real = getattr(exact, name)
            monkeypatch.setattr(
                exact, name, lambda *a, real=real: calls.append(a) or real(*a)
            )
        I = expand_principal(m("d", 4))
        fld = Field.parse(field_text)
        verify_resolution(hollow_square(), I, fld)
        assert len(calls) == 1
        monkeypatch.undo()
        report = assert_matches_oracle(hollow_square(), I, fld)
        assert not report.ok
        top = next(c for c in report.checks if c.degree == "x1*x2*x3*x4")
        assert top.witness == {"reduced_homology": [0, 0, 1], "first_nonzero": 1}
        path = next(c for c in report.checks if c.degree == "x1*x2*x3")
        assert path.status == "pass"

    def test_collapsible_degrees_need_no_rank(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            exact, "rank_rationals", lambda rows: calls.append(rows) or 0
        )
        report = verify_resolution(
            power_complex(3, VarRange(1, 3), 3), expand_principal(m("c^3"))
        )
        assert report.ok and not calls


class TestCellsAgainstBruteForce:
    """The integer facet index and orientation against all-pairs scans of faces."""

    @given(small_borel, st.one_of(st.none(), st.integers(0, 10**6)))
    @settings(max_examples=40, deadline=None)
    def test_cells_match_subset_scans(self, ideal, pick):
        n, gens = ideal
        X = borel_complex(BorelIdeal.from_borel_gens(n, gens))
        if pick is not None:
            X = drop_maximal_cell(X, pick) or X
        cells = X.cells
        key = {c.id: frozenset(X.vertex_labels[v] for v in c.vertices) for c in cells}
        assert {key[c.id]: c.dim for c in cells} == dict(X.faces)
        assert list(X.vertex_labels) == sorted(X.vertex_labels, key=canonical_key)
        for c in cells:
            f = key[c.id]
            assert c.label == lcm_many(f) == X.labels[f]
            below = {t for t, d in X.faces.items() if d == c.dim - 1 and t < f}
            assert {key[fid] for fid, _ in c.facets} == below
            if c.dim == 1:
                # +1 on the rlex-greater endpoint, the lower vertex id
                assert [s for _, s in c.facets] == [1, -1]
            ridges = {}
            for fid, s1 in c.facets:
                for rid, s2 in cells[fid].facets:
                    ridges.setdefault(rid, []).append(s1 * s2)
            # each ridge lies in exactly two facets, with cancelling signs
            assert all(len(v) == 2 and sum(v) == 0 for v in ridges.values())
            if c.dim >= 2:
                inner = {t for t, d in X.faces.items() if d == c.dim - 2 and t < f}
                assert {key[r] for r in ridges} == inner
        assert dict_to_complex(json.loads(dumps(X))).cells == cells


# ---- the absolute-only kernel (every degree collapsed from scratch), as reference


def absolute_acyclicity_checks(X, fld, degrees):
    """One check per degree: select, collapse all of X_{<=b}, eliminate."""
    cells = X.cells
    facets = [[fid for fid, _ in c.facets] for c in cells]
    comask = [0] * len(cells)
    for c in cells:
        for fid in facets[c.id]:
            comask[fid] |= 1 << c.id
    below = []
    for v in range(X.n):
        masks = [0] * (max(c.label.exps[v] for c in cells) + 1)
        for c in cells:
            masks[c.label.exps[v]] |= 1 << c.id
        for k in range(1, len(masks)):
            masks[k] |= masks[k - 1]
        below.append(masks)

    everything = (1 << len(cells)) - 1
    checks = []
    for b in degrees:
        live = everything
        for masks, e in zip(below, b.exps):
            if e < len(masks) - 1:
                live &= masks[e]
        top = cells[live.bit_length() - 1].dim
        residue = absolute_collapse(live, comask, facets)
        if residue & (residue - 1) == 0:
            dims = (0,) * (top + 2)
        else:
            dims = _residual_homology(cells, _bits(residue), top, fld)
        ok = not any(dims)
        witness = None
        if not ok:
            witness = {
                "reduced_homology": list(dims),
                "first_nonzero": next(i - 1 for i, h in enumerate(dims) if h != 0),
            }
        checks.append(
            CheckResult(
                name="acyclic",
                status="pass" if ok else "fail",
                degree=b.canonical(),
                witness=witness,
            )
        )
    return checks


def absolute_collapse(live, comask, facets):
    """The cells left of a face-closed selection after elementary collapses."""
    selected = _bits(live)
    count = {i: (comask[i] & live).bit_count() for i in selected}
    free = [i for i in reversed(selected) if count[i] == 1]
    while free:
        f = free.pop()
        if not live >> f & 1 or count[f] != 1:
            continue
        c = (comask[f] & live).bit_length() - 1
        live ^= (1 << f) | (1 << c)
        for g in facets[c] + facets[f]:
            if g != f:
                count[g] -= 1
                if count[g] == 1:
                    free.append(g)
    return live


def golden_drop_mutants():
    """The importable single-edit mutants of the mutation-suite files: X
    without one of its maximal cells, one per maximal cell."""
    out = []
    for name in ("complex_P43.json", "complex_Q4_bd2.json"):
        X = dict_to_complex(json.loads((DATA / name).read_text()))
        facet_ids = {fid for c in X.cells for fid, _ in c.facets}
        tops = [c for c in X.cells if c.id not in facet_ids]
        out += [(name, drop_maximal_cell(X, k)) for k in range(len(tops))]
    return out


def assert_matches_absolute(X, I, fld):
    report = verify_resolution(X, I, fld)
    degrees = build_lattice(I).sorted_elements[1:]
    assert list(report.checks[1:]) == absolute_acyclicity_checks(X, fld, degrees)
    return report


class TestRelativeAgainstAbsoluteKernel:
    """Relative collapse decides every degree as the absolute kernel does."""

    @given(
        small_borel,
        st.sampled_from(["q", "p:2"]),
        st.one_of(st.none(), st.integers(0, 10**6)),
    )
    @settings(max_examples=60, deadline=None)
    def test_borel_ideals_and_mutants(self, ideal, field_text, pick):
        n, gens = ideal
        I = BorelIdeal.from_borel_gens(n, gens)
        X = borel_complex(I)
        if pick is not None:
            X = drop_maximal_cell(X, pick) or X
        assert_matches_absolute(X, I, Field.parse(field_text))

    @pytest.mark.parametrize("field_text", ["q", "p:2"])
    def test_golden_drop_mutants(self, field_text):
        mutants = golden_drop_mutants()
        assert len(mutants) == 17
        for name, X in mutants:
            # the ideal of the vertex labels, as `verify --in` takes it
            I = BorelIdeal.from_expanded(X.n, frozenset(X.vertex_labels))
            report = assert_matches_absolute(X, I, Field.parse(field_text))
            assert not report.ok, name


def kernel_paths(monkeypatch, X, I, fld=Q):
    """verify's report, and how each lattice degree was decided, in order.

    "relative": X_{<=b} collapsed onto its lower selection.  "stuck": the
    relative collapse left cells, so the absolute steps ran.  "atom": the
    absolute steps on a single vertex.  "lower failed": the absolute steps
    alone on a non-atom, whose lower selection had not passed.
    """
    calls = []
    real = resolution._collapse

    def spy(live, lower, comask, facets):
        left = real(live, lower, comask, facets)
        calls.append((live, lower, left))
        return left

    with monkeypatch.context() as patch:
        patch.setattr(resolution, "_collapse", spy)
        report = verify_resolution(X, I, fld)
    paths, it = [], iter(calls)
    for live, lower, left in it:
        if not lower:
            paths.append("lower failed" if live & (live - 1) else "atom")
        elif left == lower:
            paths.append("relative")
        else:
            paths.append("stuck")
            assert next(it)[:2] == (live, 0)
    assert len(paths) == len(report.checks) - 1
    return report, paths


class TestKernelPaths:
    @pytest.mark.parametrize(
        "n, top",
        [(4, "x4^4"), (5, "x5^3"), (5, "x2*x3*x5,x1*x4^2")],
    )
    def test_every_non_atom_degree_is_relative(self, monkeypatch, n, top):
        I = BorelIdeal.from_borel_gens(
            n, [parse_monomial(t, n) for t in top.split(",")]
        )
        report, paths = kernel_paths(monkeypatch, borel_complex(I), I)
        assert report.ok
        assert paths.count("atom") == len(I.expanded)
        assert paths.count("relative") == len(paths) - len(I.expanded)

    def test_failed_lower_selection_takes_the_absolute_path(self, monkeypatch):
        # P(3,3) without a maximal cell: the first failing degree gets stuck
        # relative to a passing one, and degrees above it fall back
        X = power_complex(3, VarRange(1, 3), 3)
        I = expand_principal(m("c^3"))
        degrees = build_lattice(I).sorted_elements[1:]
        facet_ids = {fid for c in X.cells for fid, _ in c.facets}
        seen = set()
        for pick in range(sum(c.id not in facet_ids for c in X.cells)):
            Y = drop_maximal_cell(X, pick)
            report, paths = kernel_paths(monkeypatch, Y, I)
            reference = absolute_acyclicity_checks(Y, Q, degrees)
            assert list(report.checks[1:]) == reference
            for path, check in zip(paths, reference):
                seen.add((path, check.status))
        assert ("stuck", "fail") in seen
        assert ("lower failed", "fail") in seen
