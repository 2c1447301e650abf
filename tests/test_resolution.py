import itertools
import json
import pickle
from functools import reduce
from operator import le, or_
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from borelcell import exact, resolution
from borelcell.borel import BorelIdeal, expand_principal
from borelcell.builders import (
    borel_complex,
    induced_complex,
    power_complex,
    principal_complex,
)
from borelcell.complexes import LabeledComplex, restrict, simplex
from borelcell.exact import Field, rank_mod_p, rank_rationals
from borelcell.koszul import upper_koszul
from borelcell.lattice import build_lattice
from borelcell.monomials import (
    Monomial,
    VarRange,
    _below_masks,
    _bits,
    _exps_key,
    _exps_text,
    canonical_key,
    parse_monomial,
)
from borelcell.resolution import (
    ChainComplex,
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
from references import (
    acyclic_rows,
    all_borel_ideals,
    and_select,
    lcm_many,
    monomials_of_degree,
    report_checks,
)

Q = Field()
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


def flip_one_sign(X, dim):
    """A stub of X whose finished complex has the first facet sign of its
    first dim-cell flipped: the one attribute that verify reads."""
    C = chain_complex(X)
    columns = list(C.columns)
    i = C.dims.index(dim)
    (fid, sign), *rest = columns[i]
    columns[i] = ((fid, -sign), *rest)
    flipped = ChainComplex(C.dims, C.vertices, C.labels, tuple(columns))
    return SimpleNamespace(_chain=flipped)


def differential(dims, columns):
    """A hand-made ChainComplex for the square check, which reads only dims
    and columns; its cells get no vertices and the unit label."""
    return ChainComplex(dims, ((),) * len(dims), ((0,),) * len(dims), columns)


class TestChainComplex:
    def test_structure(self):
        X = power_complex(2, VarRange(1, 2), 2)
        C = chain_complex(X)
        assert C.dims == (0, 0, 0, 1, 1)
        assert C.columns == tuple(c.facets for c in X.cells)
        # each edge hits two distinct endpoints with opposite signs
        for col in C.columns[3:]:
            assert len({fid for fid, _ in col}) == 2
            assert all(C.dims[fid] == 0 for fid, _ in col)
            assert sorted(sign for _, sign in col) == [-1, 1]

    def test_void(self):
        C = chain_complex(LabeledComplex(3, {}))
        assert C.dims == () and C.columns == ()

    def test_boundary_squared_zero(self):
        C = chain_complex(power_complex(3, VarRange(1, 3), 2))
        assert check_boundary_squared_zero(C)

    def test_boundary_squared_nonzero_detected(self):
        # one vertex, two edges on it, a 2-cell on both edges with equal signs
        bad = differential(
            dims=(0, 1, 1, 2), columns=((), ((0, 1),), ((0, 1),), ((1, 1), (2, 1)))
        )
        assert not check_boundary_squared_zero(bad)

    def test_boundary_squared_cancellation_needs_every_term(self):
        # one column of the square sums two nonzero terms; dropping or
        # double-counting either one would be noticed
        good = differential(
            dims=(0, 1, 1, 2), columns=((), ((0, 1),), ((0, 1),), ((1, 1), (2, -1)))
        )
        assert check_boundary_squared_zero(good)
        # a second vertex under the second edge only: that row keeps -1
        bad = differential(
            dims=(0, 0, 1, 1, 2),
            columns=((), (), ((0, 1),), ((0, 1), (1, 1)), ((2, 1), (3, -1))),
        )
        assert not check_boundary_squared_zero(bad)

    def test_facet_label_must_divide_cell_label(self):
        # nothing checks this at run time: a label is the lcm of its cell's
        # vertex labels, so a facet's label divides its cell's, and an
        # import rejects a file label that is not that lcm
        built = [power_complex(4, VarRange(1, 4), 4)]
        for n, gens in [(4, ["b*d^2"]), (5, ["x2*x3*x5", "x1*x4^2"])]:
            I = BorelIdeal.from_borel_gens(n, [m(g, n) for g in gens])
            built += [borel_complex(I), induced_complex(I)]
        for X in built + golden_complexes():
            C = chain_complex(X)
            vs = X.vertex_labels
            for cell, label, column in zip(C.vertices, C.labels, C.columns):
                assert label == lcm_many(vs[i] for i in cell).exps
                for fid, _ in column:
                    assert all(map(le, C.labels[fid], label))
        # an edge whose file label misses one of its endpoints
        data = json.loads((DATA / "complex_P43.json").read_text())
        edge = next(rec for rec in data["cells"] if rec["dim"] == 1)
        edge["label"] = data["vertices"][edge["vertices"][0]]["label"]
        with pytest.raises(ValueError, match="lcm of its vertices"):
            dict_to_complex(data)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_verify_fails_a_flipped_facet_sign(self, dim):
        # one flip in one cell, which no LabeledComplex would accept; the
        # composed columns must show the nonzero square
        X = power_complex(3, VarRange(1, 3), 2)
        stub = flip_one_sign(X, dim)
        I = expand_principal(m("c^2"))
        assert verify_resolution(X, I).boundary_squared_zero is True
        report = verify_resolution(stub, I)
        assert report.boundary_squared_zero is False and not report.ok


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
        # the boundary check, and one degree per nonunit lattice element
        assert report.boundary_squared_zero is True
        assert len(report.degrees) == 7 and report.failures == {}

    def test_power_complex_resolves_the_square(self):
        I = expand_principal(m("c^2"))
        X = power_complex(3, VarRange(1, 3), 2)
        report = verify_resolution(X, I)
        assert report.ok and check_minimal(X)

    def test_vertex_mismatch_rejected(self):
        I = expand_principal(m("c^2"))
        with pytest.raises(ValueError, match="vertex labels"):
            verify_resolution(simplex([m("a"), m("b"), m("c")]), I)

    def test_mod_p_agrees_with_rationals(self):
        I = BorelIdeal.from_borel_gens(3, [m("b^2*c"), m("a*c^2")])
        X = borel_complex(I)
        r_q = verify_resolution(X, I)
        r_p = verify_resolution(X, I, fld=Field.parse("p:32003"))
        assert r_q.ok and r_p.ok
        assert r_p.field == "p:32003"
        assert report_checks(r_q) == report_checks(r_p)

    def test_detects_a_missing_cell(self):
        X = power_complex(3, VarRange(1, 3), 2)
        square = next(f for f, d in X.faces.items() if d == 2 and len(f) == 4)
        faces = {f: d for f, d in X.faces.items() if f != square}
        broken = LabeledComplex(3, faces)
        report = verify_resolution(broken, expand_principal(m("c^2")))
        assert not report.ok
        failing = [row for row in acyclic_rows(report) if row[1] == "fail"]
        assert failing
        b, _, witness = failing[0]
        assert _exps_text(b) == "x1*x2^2*x3"
        assert witness["first_nonzero"] == 1

    def test_already_oriented_complex_builds_no_monomial(self, monkeypatch):
        # P(5,3): the lattice of 1,004 elements, the kernel and the degree
        # strings run on exponent tuples; nothing is re-validated
        X = power_complex(5, VarRange(1, 5), 3)
        chain_complex(X)
        I = expand_principal(m("x5^3", 5))
        built = []
        check = Monomial.__init__
        monkeypatch.setattr(
            Monomial, "__init__", lambda b, exps: built.append(exps) or check(b, exps)
        )
        report = verify_resolution(X, I)
        monkeypatch.undo()
        assert report.ok and len(report.degrees) == 1003
        assert built == []
        # the degrees it decided, in order, for the Koszul oracle
        assert report.degrees == build_lattice(I).exps[1:]
        degrees = [_exps_text(b) for b in report.degrees]
        assert degrees == [Monomial(b).canonical() for b in report.degrees]


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
    degrees = [Monomial(b) for b in build_lattice(I).exps[1:]]
    assert report.degrees == tuple(b.exps for b in degrees)
    for (_, status, witness), b in zip(acyclic_rows(report), degrees):
        assert (status, witness) == oracle_check(X, I, fld, b), b
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


# ---- the dense boundary matrices that ChainComplex replaced, as reference


def dense_boundary_matrices(C):
    """Sign matrices between consecutive dimensions, rows and columns in cell
    id order: matrices[d - 1][row][col] maps d-cells to (d - 1)-cells."""
    top = max(C.dims, default=-1)
    ids = range(len(C.dims))
    by_dim = [[i for i in ids if C.dims[i] == d] for d in range(top + 1)]
    matrices = []
    for d in range(1, top + 1):
        mat = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for col, i in enumerate(by_dim[d]):
            for fid, sign in C.columns[i]:
                mat[by_dim[d - 1].index(fid)][col] = sign
        matrices.append(mat)
    return [len(ids) for ids in by_dim], matrices


def dense_squares_to_zero(matrices):
    return all(
        sum(D1[i][k] * D2[k][j] for k in range(len(D2))) == 0
        for D1, D2 in zip(matrices, matrices[1:])
        for i in range(len(D1))
        for j in range(len(D2[0]))
    )


def dense_reduced_homology(C, fld):
    f, matrices = dense_boundary_matrices(C)
    # the augmentation C_0 -> k has rank 1; nothing maps onto the top cells
    ranks = [1] + [fld.rank([list(r) for r in M]) for M in matrices] + [0]
    return (0,) + tuple(f[i] - ranks[i] - ranks[i + 1] for i in range(len(f)))


def golden_complexes():
    return [
        dict_to_complex(json.loads(path.read_text()))
        for path in sorted(DATA.glob("complex_*.json"))
    ]


class TestAgainstDenseMatrices:
    """The sparse ChainComplex against the dense matrices it replaced."""

    @pytest.mark.parametrize("field_text", ["q", "p:2"])
    def test_golden_complexes_and_flipped_signs(self, field_text):
        fld = Field.parse(field_text)
        for X in golden_complexes():
            C = chain_complex(X)
            assert check_boundary_squared_zero(C)
            assert dense_squares_to_zero(dense_boundary_matrices(C)[1])
            assert homology_dims(X, fld) == dense_reduced_homology(C, fld)
            for dim in range(1, X.dim + 1):
                stub = flip_one_sign(X, dim)
                C = chain_complex(stub)
                square = check_boundary_squared_zero(C)
                assert square == dense_squares_to_zero(dense_boundary_matrices(C)[1])
                assert not square, (X.n, dim)
                every = range(len(C.dims))
                assert _residual_homology(C, every, X.dim, fld) == (
                    dense_reduced_homology(C, fld)
                )

    @given(small_borel, st.sampled_from(["q", "p:2"]))
    @settings(max_examples=30, deadline=None)
    def test_borel_complexes(self, ideal, field_text):
        n, gens = ideal
        X = borel_complex(BorelIdeal.from_borel_gens(n, gens))
        fld = Field.parse(field_text)
        assert check_boundary_squared_zero(chain_complex(X))
        assert homology_dims(X, fld) == dense_reduced_homology(chain_complex(X), fld)

    def test_verify_runs_the_public_differential(self, monkeypatch):
        calls = []
        for name in ("chain_complex", "check_boundary_squared_zero"):
            real = getattr(resolution, name)
            spy = lambda *a, real=real, name=name: calls.append(name) or real(*a)
            monkeypatch.setattr(resolution, name, spy)
        X = power_complex(3, VarRange(1, 3), 2)
        assert verify_resolution(X, expand_principal(m("c^2"))).ok
        assert calls == ["chain_complex", "check_boundary_squared_zero"]


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
        # at a*b*c*d the lower selection is a path of three vertices; the
        # fourth vertex has two cofaces, so nothing new collapses, and the
        # one edge-to-vertex block relative to the path must find the loop;
        # every other degree selects a path (which collapses) or a set of
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
        ((mat, *_),) = calls
        assert [len(mat), len(mat[0])] == [1, 2]
        monkeypatch.undo()
        report = assert_matches_oracle(hollow_square(), I, fld)
        assert not report.ok
        top = report.failures[m("a*b*c*d", 4).exps]
        assert top == {"reduced_homology": [0, 0, 1], "first_nonzero": 1}
        path = m("a*b*c", 4).exps
        assert path in report.degrees and path not in report.failures

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
    """(degree, status, witness or None) per degree, as acyclic_rows lists a
    report: select, collapse all of X_{<=b}, eliminate."""
    cells = X.cells
    C = chain_complex(X)
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
    rows = []
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
            dims = _residual_homology(C, _bits(residue), top, fld)
        ok = not any(dims)
        witness = None
        if not ok:
            witness = {
                "reduced_homology": list(dims),
                "first_nonzero": next(i - 1 for i, h in enumerate(dims) if h != 0),
            }
        rows.append((b.exps, "pass" if ok else "fail", witness))
    return rows


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
    report, paths = kernel_paths(X, I, fld)
    degrees = [Monomial(b) for b in build_lattice(I).exps[1:]]
    reference = absolute_acyclicity_checks(X, fld, degrees)
    assert acyclic_rows(report) == reference
    labels = cell_label_exps(X)
    for path, (b, status, _) in zip(paths, reference):
        if path == "nerve":
            assert b not in labels and status == "pass"
    return report


class TestRelativeAgainstAbsoluteKernel:
    """The nerve and relative collapse decide every degree as the absolute
    kernel does."""

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


def tracking_walk(seen):
    """resolution._walk, also recording in seen, in walk order, the selection
    it hands over with each degree."""
    walk = resolution._walk

    def tracked(below, visit):
        def visit_tracked(b, live):
            seen[b] = live
            visit(b, live)

        walk(below, visit_tracked)

    return tracked


def kernel_paths(X, I, fld=Q):
    """verify's report, and how each lattice degree was decided, in the
    report's (canonical) order; the degrees are tracked as the kernel's
    lattice walk hands them over.

    "nerve": a degree labeling no cell whose upper Koszul complex is a full
    simplex, passed with no collapse.  "relative": X_{<=b} collapsed onto
    its lower selection.  "stuck": the relative collapse left cells, ranked
    relative to the lower selection.  "atom": a single vertex, ranked from
    the empty selection.  "lower failed": a non-atom whose lower selection
    had not passed, collapsed and ranked from the empty selection.  Every
    other degree collapses exactly once.
    """
    seen = {}  # the degrees the walk has handed over so far
    calls = []
    collapse = resolution._collapse

    def spy(live, base, comask, facets):
        left = collapse(live, base, comask, facets)
        calls.append((next(reversed(seen)), live, base, left))
        return left

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "_collapse", spy)
        patch.setattr(resolution, "_walk", tracking_walk(seen))
        report = verify_resolution(X, I, fld)
    # the walk runs in lexicographic order; the report lists it canonically
    current = list(seen)
    assert current == sorted(current)
    assert sorted(current, key=_exps_key) == list(report.degrees)
    by_degree = {b: rest for b, *rest in calls}
    assert len(by_degree) == len(calls)
    paths = []
    for b in report.degrees:
        if b not in by_degree:
            paths.append("nerve")
            continue
        live, base, left = by_degree[b]
        if not base:
            paths.append("lower failed" if live & (live - 1) else "atom")
        else:
            paths.append("stuck" if left else "relative")
    return report, paths


def cell_label_exps(X):
    return {c.label.exps for c in X.cells}


class TestKernelPaths:
    @pytest.mark.parametrize(
        "n, top",
        [(4, "x4^4"), (5, "x5^3"), (5, "x2*x3*x5,x1*x4^2")],
    )
    def test_every_non_atom_degree_is_relative(self, n, top):
        # ... unless it labels no cell and K^b is a full simplex on a
        # nonempty vertex set: then it takes the nerve
        I = BorelIdeal.from_borel_gens(
            n, [parse_monomial(t, n) for t in top.split(",")]
        )
        X = borel_complex(I)
        report, paths = kernel_paths(X, I)
        assert report.ok
        atoms = {g.exps for g in I.expanded}
        labels = cell_label_exps(X)
        expected = []
        for b in report.degrees:
            K = upper_koszul(I.expanded, Monomial(b))
            union = reduce(or_, K.masks)
            nerve = b not in labels and union and union in K.masks
            expected.append(
                "atom" if b in atoms else "nerve" if nerve else "relative"
            )
        assert paths == expected
        assert "nerve" in paths

    def test_non_label_degrees_of_p44_take_the_nerve(self):
        X = power_complex(4, VarRange(1, 4), 4)
        I = expand_principal(parse_monomial("x4^4", 4))
        report, paths = kernel_paths(X, I)
        labels = cell_label_exps(X)
        assert len(paths) == 590
        nerve = [b for b, p in zip(report.degrees, paths) if p == "nerve"]
        assert nerve == [b for b in report.degrees if b not in labels]
        assert len(nerve) == 590 - len(labels) == 433

    def test_failed_lower_selection_takes_the_absolute_path(self):
        # P(3,3) without a maximal cell: the first failing degree gets stuck
        # relative to a passing one, and degrees above it start from the
        # empty selection
        X = power_complex(3, VarRange(1, 3), 3)
        I = expand_principal(m("c^3"))
        degrees = [Monomial(b) for b in build_lattice(I).exps[1:]]
        facet_ids = {fid for c in X.cells for fid, _ in c.facets}
        seen = set()
        for pick in range(sum(c.id not in facet_ids for c in X.cells)):
            Y = drop_maximal_cell(X, pick)
            report, paths = kernel_paths(Y, I)
            reference = absolute_acyclicity_checks(Y, Q, degrees)
            assert acyclic_rows(report) == reference
            for path, (_, status, _) in zip(paths, reference):
                seen.add((path, status))
        assert ("stuck", "fail") in seen
        assert ("lower failed", "fail") in seen
        assert ("nerve", "pass") in seen

    def test_degree_above_a_failed_degree_starts_from_the_empty_base(self):
        # edges a^2-ab, a^2-ac and ab-bc, with b^2 and c^2 isolated: a*b*c
        # selects the edge ab-bc and the point ac, and fails; that is the
        # lower selection of a^2*b*c, which selects the whole tree, so the
        # kernel, keeping only failed selections, decides it from the empty
        # base and passes it, as the absolute kernel does
        faces = {fs([t]): 0 for t in ("a^2", "a*b", "b^2", "a*c", "b*c", "c^2")}
        for edge in (["a*b", "a^2"], ["a*c", "a^2"], ["a*b", "b*c"]):
            faces[fs(edge)] = 1
        X = LabeledComplex(3, faces)
        I = expand_principal(m("c^2"))
        report, paths = kernel_paths(X, I)
        degrees = [Monomial(b) for b in report.degrees]
        rows = acyclic_rows(report)
        assert rows == absolute_acyclicity_checks(X, Q, degrees)
        decided = dict(zip(report.degrees, zip(paths, rows)))
        _, (_, status, witness) = decided[m("a*b*c").exps]
        assert status == "fail"
        assert witness == {"reduced_homology": [0, 1, 0], "first_nonzero": 0}
        path, (_, status, witness) = decided[m("a^2*b*c").exps]
        assert path == "lower failed"
        assert (status, witness) == ("pass", None)

    def test_one_collapse_per_golden_drop_mutant_degree(self):
        # a stuck degree is ranked relative to its lower selection, never
        # collapsed a second time from the empty one
        paths = []
        for _, X in golden_drop_mutants():
            I = BorelIdeal.from_expanded(X.n, frozenset(X.vertex_labels))
            paths += kernel_paths(X, I)[1]
        assert len(paths) == 3292
        assert paths.count("stuck") == 227
        # degrees labeling no cell, each before its mutant's first failure
        # in walk order
        assert paths.count("nerve") == 609


class TestVerifyWalk:
    """The kernel walks the lcm lattice over its own cell masks: it decides
    exactly the ideal's lattice degrees, each on the selection the
    per-degree AND made, and reports them as the absolute kernel does, in
    canonical order."""

    @staticmethod
    def assert_walk_matches(X, I):
        lives = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resolution, "_walk", tracking_walk(lives))
            report = verify_resolution(X, I, Q)
        degrees = build_lattice(I).exps[1:]
        assert report.degrees == degrees
        reference = absolute_acyclicity_checks(X, Q, [Monomial(b) for b in degrees])
        assert acyclic_rows(report) == reference
        below = _below_masks(chain_complex(X).labels, X.n)
        assert lives == {b: and_select(below, b) for b in degrees}
        return report

    @pytest.mark.parametrize(
        "n, gens", [(3, "a*c,b"), (4, "a*b,a*c,a*d^2,b^2*c*d^2")]
    )
    def test_the_taylor_complex_of_a_mixed_ideal(self, n, gens):
        # verify takes Borel ideals only; the full simplex on generators of
        # several degrees resolves their ideal, and its walk must skip the
        # tuples that are not lcms of the cells dividing them, such as a*b
        # for a*c and b: both exponents are reached, by different cells
        gens = [m(t, n) for t in gens.split(",")]
        C = chain_complex(simplex(gens))
        below = _below_masks(C.labels, n)
        lives = {}
        resolution._walk(below, lives.__setitem__)
        # the lcms of all nonempty subsets, independently of the walk
        degrees = sorted(
            {
                lcm_many(S).exps
                for k in range(1, len(gens) + 1)
                for S in itertools.combinations(gens, k)
            },
            key=_exps_key,
        )
        assert sorted(lives, key=_exps_key) == degrees
        assert lives == {b: and_select(below, b) for b in degrees}
        walked, failures = resolution._acyclicity_checks(C, n, Q)
        assert list(walked) == degrees
        assert failures == {}

    @pytest.mark.parametrize(
        "n, d, count", [(4, 3, 65), (3, 2, 7), (3, 3, 15), (3, 4, 31), (3, 5, 63)]
    )
    def test_every_borel_ideal(self, n, d, count):
        ideals = all_borel_ideals(n, d)
        assert len(ideals) == count
        for expanded in ideals:
            I = BorelIdeal.from_expanded(n, expanded)
            assert self.assert_walk_matches(borel_complex(I), I).ok

    @pytest.mark.parametrize(
        "name", ["complex_P43.json", "complex_Q4_bd2.json", "complex_Q5_two_gens.json"]
    )
    def test_golden_complexes_and_their_drop_mutants(self, name):
        X = dict_to_complex(json.loads((DATA / name).read_text()))
        I = BorelIdeal.from_expanded(X.n, frozenset(X.vertex_labels))
        assert self.assert_walk_matches(X, I).ok
        facet_ids = {fid for c in X.cells for fid, _ in c.facets}
        for pick in range(sum(c.id not in facet_ids for c in X.cells)):
            report = self.assert_walk_matches(drop_maximal_cell(X, pick), I)
            assert not report.ok, pick


def drop_pairs():
    """(X, X without one maximal cell) for P(3,3) and the golden files."""
    sources = [power_complex(3, VarRange(1, 3), 3)] + [
        dict_to_complex(json.loads((DATA / name).read_text()))
        for name in ("complex_P43.json", "complex_Q4_bd2.json")
    ]
    for X in sources:
        facet_ids = {fid for c in X.cells for fid, _ in c.facets}
        for pick in range(sum(c.id not in facet_ids for c in X.cells)):
            yield X, drop_maximal_cell(X, pick)


class TestNerveShortcut:
    """Degrees labeling no cell, passed from K^b while nothing has failed."""

    def test_a_dropped_maximal_cell_falls_back_and_fails(self):
        # the victim's label degree labels no cell of the mutant, and it is
        # the first to fail, so only the K^b test keeps it off the nerve
        count = 0
        for X, Y in drop_pairs():
            (b,) = cell_label_exps(X) - cell_label_exps(Y)
            I = BorelIdeal.from_expanded(Y.n, frozenset(Y.vertex_labels))
            report, paths = kernel_paths(Y, I)
            rows = acyclic_rows(report)
            statuses = [status for _, status, _ in rows]
            i = report.degrees.index(b)
            assert statuses.index("fail") == i
            assert paths[i] != "nerve"
            K = upper_koszul(I.expanded, Monomial(b))
            assert reduce(or_, K.masks) not in K.masks  # not a full simplex
            degrees = [Monomial(e) for e in report.degrees]
            reference = absolute_acyclicity_checks(Y, Q, degrees)
            assert rows[i] == reference[i]
            count += 1
        assert count == 6 + 17

    def test_a_cell_label_never_takes_the_nerve(self):
        # hollow triangle on a^2, ab, b^2: K^{a^2 b^2} is a full simplex
        # (ab divides both a^2 b^2 / a and a^2 b^2 / b), but X_{<=a^2 b^2}
        # is a circle, carried by the edge {a^2, b^2} labeled a^2 b^2
        vs = [m(t, 2) for t in ("a^2", "a*b", "b^2")]
        faces = {frozenset([v]): 0 for v in vs}
        faces.update({frozenset(e): 1 for e in itertools.combinations(vs, 2)})
        X = LabeledComplex(2, faces)
        I = BorelIdeal.from_expanded(2, frozenset(vs))
        K = upper_koszul(vs, m("a^2*b^2", 2))
        assert reduce(or_, K.masks) in K.masks
        report, paths = kernel_paths(X, I)
        assert "nerve" not in paths
        *rest, last = acyclic_rows(report)
        assert last == (
            (2, 2),
            "fail",
            {"reduced_homology": [0, 0, 1], "first_nonzero": 1},
        )
        assert _exps_text(last[0]) == "x1^2*x2^2"
        assert [status for _, status, _ in rest] == ["pass"] * 5


class TestChecksView:
    """A report holds the boundary verdict, the degrees and the failed ones'
    witnesses; the checks rebuilt from these equal the checks recorded in
    the golden reports."""

    @pytest.mark.parametrize(
        "source, golden",
        [
            ("P33", "verify_P33.json"),
            ("complex_P43_drop.json", "verify_P43_drop.json"),
        ],
    )
    def test_checks_equal_the_golden_reports(self, source, golden):
        def load():
            if source == "P33":
                data = json.loads(dumps(power_complex(3, VarRange(1, 3), 3)))
            else:
                data = json.loads((DATA / source).read_text())
            return dict_to_complex(data)  # a complex of its own, pickled below

        X = load()
        I = BorelIdeal.from_expanded(X.n, frozenset(X.vertex_labels))
        *recorded, minimal = json.loads((DATA / golden).read_text())["checks"]
        assert minimal == {"name": "minimal", "status": "pass"}
        twin = pickle.loads(pickle.dumps(verify_resolution(X, I)))
        report = verify_resolution(X, I)
        assert report_checks(report) == recorded
        assert report.subject is X and twin.subject is not X
        # each field, read off the recorded checks
        bsq, *rows = recorded
        assert report.boundary_squared_zero is (bsq["status"] == "pass")
        assert report.degrees == tuple(m(c["degree"], X.n).exps for c in rows)
        failed = [c for c in rows if c["status"] == "fail"]
        witnesses = {m(c["degree"], X.n).exps: c["witness"] for c in failed}
        assert report.failures == witnesses
        assert report.ok is all(c["status"] == "pass" for c in recorded)
        # equality reads every field but the subject
        assert twin == report == verify_resolution(X, I)
        assert report_checks(twin) == recorded
        with pytest.raises(TypeError):
            hash(report)  # failures is a dict
